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


def _singular(pivot: float, col: int, tol: float) -> SingularBasis:
    return SingularBasis(f"pivot magnitude {abs(pivot):.3e} at column {col} "
                         f"is not above tolerance {tol:g}")


def _lapack_singular(exc: np.linalg.LinAlgError) -> SingularBasis:
    return SingularBasis(f"basis passed the pivot test but LAPACK found it "
                         f"singular ({exc})")


def _forward_eliminate(a: np.ndarray, tol: float) -> None:
    """Row-reduce a in place with partial pivoting, leaving its upper
    triangle; raise SingularBasis at the first pivot whose magnitude is not
    above tol."""
    n = a.shape[0]
    for col in range(n):
        p = col + int(np.abs(a[col:, col]).argmax())
        pivot = a[p, col]
        if abs(pivot) <= tol:
            raise _singular(pivot, col, tol)
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
    SingularBasis too, never numpy's LinAlgError.
    """
    basis = np.asarray(basis, dtype=float)
    image = np.asarray(image, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DimensionMismatch(f"basis must be square, got shape {basis.shape}")
    if image.shape != basis.shape:
        raise DimensionMismatch(f"image shape {image.shape} != basis shape {basis.shape}")
    _forward_eliminate(basis.T.copy(), tol)
    try:
        return np.linalg.solve(basis.T, image.T).T
    except np.linalg.LinAlgError as exc:
        raise _lapack_singular(exc) from None


def _forward_eliminate_stack(a: np.ndarray, tol: float) -> tuple[int, SingularBasis | None]:
    """Row-reduce every matrix a[:, :, r] of the (n, n, k) stack a in place
    with the same elementwise partial-pivoting arithmetic as
    _forward_eliminate, so each matrix meets bit-identical pivots. The stack
    index is the last axis so that every numpy call runs over k contiguous
    matrices at once. Returns the number j of leading matrices whose pivots
    are all above tol, and the SingularBasis that _forward_eliminate raises
    on matrix j (None when j == k)."""
    n = a.shape[0]
    stack = np.arange(a.shape[2])
    error = None
    for col in range(n):
        p = col + np.abs(a[col:, col]).argmax(axis=0)
        pivot = a[p, col, stack]
        bad = np.abs(pivot) <= tol
        if bad.any():
            # an earlier matrix may still fail at a later column, so keep
            # eliminating the ones before the first failure
            j = int(bad.argmax())
            error = _singular(pivot[j], col, tol)
            a, stack, p, pivot = a[..., :j], stack[:j], p[:j], pivot[:j]
        top = a[col, col:].copy()
        a[col, col:] = a[p, col:, stack].T
        a[p, col:, stack] = top.T
        a[col + 1 :, col + 1 :] -= (a[col + 1 :, col] / pivot)[:, None] * a[col, col + 1 :]
    return len(stack), error


def recover_transforms(bases: np.ndarray, images: np.ndarray,
                       tol: float = PIVOT_TOL) -> tuple[np.ndarray, SingularBasis | None]:
    """recover_transform over a (k, d, d) stack of bases and images.

    Returns the matrices recovered for the leading bases that pass the
    pivot test and LAPACK's solve, bit-identical to recover_transform on
    each, and the SingularBasis recover_transform raises on the first basis
    that fails (None when every basis passes). A stack of one is slower than
    recover_transform, so single recoveries should keep using it.
    """
    if bases.ndim != 3 or bases.shape[1] != bases.shape[2] or images.shape != bases.shape:
        raise DimensionMismatch(f"expected two equal (k, d, d) stacks, got shapes "
                                f"{bases.shape} and {images.shape}")
    # matrix r of the (d, d, k) stack is bases[r].T, as recover_transform eliminates
    good, error = _forward_eliminate_stack(bases.transpose(2, 1, 0).copy(), tol)
    bases_t, images_t = bases[:good].transpose(0, 2, 1), images[:good].transpose(0, 2, 1)
    try:
        return np.linalg.solve(bases_t, images_t).transpose(0, 2, 1), error
    except np.linalg.LinAlgError:
        pass
    # LAPACK solves each matrix of a stack on its own, so the first one it
    # cannot factor is found by solving them one at a time
    for r in range(good):
        try:
            np.linalg.solve(bases_t[r], images_t[r])
        except np.linalg.LinAlgError as exc:
            good, error = r, _lapack_singular(exc)
            break
    return np.linalg.solve(bases_t[:good], images_t[:good]).transpose(0, 2, 1), error


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
