"""Minimal dense real-matrix kernels: rank tests against PIVOT_TOL, and a
plain LAPACK recovery of a linear map from its action on a basis, whose
accuracy its callers judge.

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


def recover_transform(basis: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Solve M @ basis == image for the square matrix M with LAPACK's LU solver.

    A basis that LAPACK finds singular raises SingularBasis, never numpy's
    LinAlgError, and so does a solution with a non-finite entry (states
    that overflowed or went NaN). The solve does not judge its own
    accuracy: an ill-conditioned basis can give a wrong matrix without any
    error, so its callers bound the error and refine or refuse (see
    output_query._derive).
    """
    basis = np.asarray(basis, dtype=float)
    image = np.asarray(image, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DimensionMismatch(f"basis must be square, got shape {basis.shape}")
    if image.shape != basis.shape:
        raise DimensionMismatch(f"image shape {image.shape} != basis shape {basis.shape}")
    try:
        matrix = np.linalg.solve(basis.T, image.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularBasis(f"LAPACK found the basis singular ({exc})") from None
    return check_finite(matrix)


def is_full_rank(m: np.ndarray, tol: float = PIVOT_TOL) -> bool:
    """True iff elimination with partial pivoting finds d pivots above tol."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    for col in range(len(a)):
        p = col + int(np.abs(a[col:, col]).argmax())
        pivot = a[p, col]
        if abs(pivot) <= tol:
            return False
        if p != col:
            a[[col, p]] = a[[p, col]]
        # column col below the pivot is never read again, so it is left as is
        a[col + 1 :, col + 1 :] -= (a[col + 1 :, col] / pivot)[:, None] * a[col, col + 1 :]
    return True


def mat_approx_eq(a: np.ndarray, b: np.ndarray, tol: float = LABEL_TOL) -> bool:
    """True iff the max-abs entrywise difference is at most tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare shapes {a.shape} and {b.shape}")
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True
