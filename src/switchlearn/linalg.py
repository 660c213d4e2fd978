"""Minimal dense real-matrix kernels: rank tests, and recovery of a linear
map from its action on a basis.

Matrices are plain float64 numpy arrays. Everything here is a pure function;
no operand is modified in place.
"""

import math

import numpy as np

from .errors import DimensionMismatch, SingularBasis

PIVOT_TOL = 1e-12
LABEL_TOL = 1e-6


def identity(d: int) -> np.ndarray:
    """d-dimensional identity matrix."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return np.eye(d)


def check_label_tol(tol: float) -> float:
    """tol itself when it is positive and finite; ValueError otherwise."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"label tolerance must be positive and finite, got {tol!r}")
    return tol


def check_finite(matrix: np.ndarray) -> np.ndarray:
    """matrix itself when every entry is finite; otherwise SingularBasis
    naming the first non-finite entry (states that overflowed or went NaN)."""
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise SingularBasis(f"recovered matrix is not finite: entry ({i}, {j}) is "
                            f"{matrix[i, j]}")
    return matrix


def _forward_eliminate(a: np.ndarray, tol: float) -> None:
    """Row-reduce a in place with partial pivoting, leaving its upper
    triangle; raise SingularBasis at the first pivot whose magnitude is not
    above tol."""
    n = a.shape[0]
    for col in range(n):
        p = col + int(np.abs(a[col:, col]).argmax())
        pivot = a[p, col]
        if abs(pivot) <= tol:
            raise SingularBasis(f"pivot magnitude {abs(pivot):.3e} at column {col} "
                                f"is not above tolerance {tol:g}")
        if p != col:
            a[[col, p]] = a[[p, col]]
        # column col below the pivot is never read again, so it is left as is
        a[col + 1 :, col + 1 :] -= (a[col + 1 :, col] / pivot)[:, None] * a[col, col + 1 :]


def recover_transform(basis: np.ndarray, image: np.ndarray, tol: float = PIVOT_TOL) -> np.ndarray:
    """Solve M @ basis == image for the square matrix M.

    basis must have linearly independent columns: SingularBasis is raised
    when partial-pivoting elimination of its transpose meets a pivot not
    above tol. Only then are all d right-hand sides solved against it with
    LAPACK's LU solver; a basis that LAPACK still finds singular raises
    SingularBasis too, never numpy's LinAlgError, and so does a solution
    with a non-finite entry (states that overflowed or went NaN).
    """
    basis = np.asarray(basis, dtype=float)
    image = np.asarray(image, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DimensionMismatch(f"basis must be square, got shape {basis.shape}")
    if image.shape != basis.shape:
        raise DimensionMismatch(f"image shape {image.shape} != basis shape {basis.shape}")
    _forward_eliminate(basis.T.copy(), tol)
    try:
        matrix = np.linalg.solve(basis.T, image.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularBasis(f"basis passed the pivot test but LAPACK found it "
                            f"singular ({exc})") from None
    return check_finite(matrix)


def is_full_rank(m: np.ndarray, tol: float = PIVOT_TOL) -> bool:
    """True iff elimination with partial pivoting finds d pivots above tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    try:
        _forward_eliminate(m.copy(), tol)
    except SingularBasis:
        return False
    return True


def mat_approx_eq(a: np.ndarray, b: np.ndarray, tol: float = LABEL_TOL) -> bool:
    """True iff the max-abs entrywise difference is at most tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare shapes {a.shape} and {b.shape}")
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True
