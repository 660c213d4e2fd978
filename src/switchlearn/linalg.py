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


def _non_finite(matrix: np.ndarray) -> SingularBasis:
    i, j = np.argwhere(~np.isfinite(matrix))[0]
    return SingularBasis(f"recovered matrix is not finite: entry ({i}, {j}) is "
                         f"{matrix[i, j]}")


def check_finite(matrix: np.ndarray) -> np.ndarray:
    """matrix itself when every entry is finite; otherwise SingularBasis
    naming the first non-finite entry (states that overflowed or went NaN)."""
    if not np.isfinite(matrix).all():
        raise _non_finite(matrix)
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
        raise _lapack_singular(exc) from None
    return check_finite(matrix)


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
        if col == n - 1:  # the swap and update would touch no entry read again
            break
        top = a[col, col:].copy()
        a[col, col:] = a[p, col:, stack].T
        a[p, col:, stack] = top.T
        a[col + 1 :, col + 1 :] -= (a[col + 1 :, col] / pivot)[:, None] * a[col, col + 1 :]
    return len(stack), error


def recover_transforms(bases: np.ndarray, images: np.ndarray, tol: float = PIVOT_TOL,
                       known: set[bytes] | None = None
                       ) -> tuple[np.ndarray, SingularBasis | None]:
    """recover_transform over a (k, d, d) stack of bases and images.

    Returns the matrices recovered for the leading bases that pass the
    pivot test, LAPACK's solve and the finiteness check, bit-identical to
    recover_transform on each, and the SingularBasis recover_transform
    raises on the first basis that fails (None when every basis passes).
    The bounded equivalence oracle recovers its outputs here; the learner
    recovers its few new labels one by one with recover_transform.

    known holds the exact bytes (basis.tobytes()) of bases that passed the
    pivot test at this tol, and is updated in place with the bases of the
    recovered matrices; a failing basis never enters it. Only the first
    occurrence of each basis not in it is pivot-tested, in one stacked
    elimination. The caller owns it and decides how long it lives: without
    it, repeats are only shared within the stack.
    """
    if bases.ndim != 3 or bases.shape[1] != bases.shape[2] or images.shape != bases.shape:
        raise DimensionMismatch(f"expected two equal (k, d, d) stacks, got shapes "
                                f"{bases.shape} and {images.shape}")
    known = set() if known is None else known
    k, d = len(bases), bases.shape[1]
    # basis.tobytes() of every basis, from one call: each row of the
    # (k, d*d) view is one opaque item whose tolist() value is its bytes
    keys = np.ascontiguousarray(bases).reshape(k, d * d).view(
        f"V{bases.itemsize * d * d}").ravel().tolist()
    fresh: dict[bytes, int] = {}  # first position of each basis to test, in stack order
    for r, key in enumerate(keys):
        if key not in known:
            fresh.setdefault(key, r)
    good, error = k, None
    if fresh:
        first = list(fresh.values())
        tested = bases if len(first) == k else bases[first]
        # matrix r of the (d, d, k) stack is tested[r].T, as recover_transform
        # eliminates; every basis before the first failing one is known or passed
        passed, error = _forward_eliminate_stack(tested.transpose(2, 1, 0).copy(), tol)
        if error is not None:
            good = first[passed]
    matrices, solve_error = _solve_stack(bases[:good], images[:good])
    known.update(keys[:len(matrices)])
    return matrices, error if solve_error is None else solve_error


def _solve_stack(bases: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, SingularBasis | None]:
    """The leading matrices M with M @ basis == image that LAPACK solves to
    finite entries, and the SingularBasis of the first basis that fails."""
    bases_t, images_t = bases.transpose(0, 2, 1), images.transpose(0, 2, 1)
    good, error = len(bases), None
    try:
        matrices = np.linalg.solve(bases_t, images_t).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        # LAPACK solves each matrix of a stack on its own, so the first one
        # it cannot factor is found by solving them one at a time
        for r in range(good):
            try:
                np.linalg.solve(bases_t[r], images_t[r])
            except np.linalg.LinAlgError as exc:
                good, error = r, _lapack_singular(exc)
                break
        matrices = np.linalg.solve(bases_t[:good], images_t[:good]).transpose(0, 2, 1)
    if not np.isfinite(matrices).all():  # it precedes any basis LAPACK failed on
        good = int(np.isfinite(matrices).all(axis=(1, 2)).argmin())
        matrices, error = matrices[:good], _non_finite(matrices[good])
    return matrices, error


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
