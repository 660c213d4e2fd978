import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlearn import (DimensionMismatch, SingularBasis, identity,
                         is_full_rank, linalg, mat_approx_eq, recover_transform,
                         recover_transforms)

from conftest import DEMO2D_MATRICES, FAULT_MATRICES


def test_identity_small():
    assert np.array_equal(identity(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(identity(1), np.array([[1.0]]))


def test_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        identity(0)


def test_identity_is_left_neutral():
    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, (3, 3))
    assert np.array_equal(identity(3) @ m, m)


def test_recover_transform_two_step_trace():
    basis = np.array([[1.69, 1.2], [1.67, 0.6]])
    image = np.array([[2.012, 0.96], [-0.181, -0.48]])
    recovered = recover_transform(basis, image)
    assert np.max(np.abs(recovered - DEMO2D_MATRICES[1])) <= 1e-9


def test_recover_transform_identity_basis():
    m = np.array([[2.0, 1.0], [0.5, -3.0]])
    assert np.max(np.abs(recover_transform(identity(2), m) - m)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 5, 12, 20])
def test_recover_transform_round_trip(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        a = rng.uniform(-1, 1, (d, d))
        basis = rng.uniform(-1, 1, (d, d))
        if not (is_full_rank(a) and is_full_rank(basis)):
            continue
        recovered = recover_transform(basis, a @ basis, 1e-12)
        assert mat_approx_eq(recovered, a, 1e-8)


def test_recover_transform_repeated_column_raises():
    rng = np.random.default_rng(7)
    for d in (2, 3, 6):
        basis = rng.uniform(-1, 1, (d, d))
        basis[:, -1] = basis[:, 0]
        with pytest.raises(SingularBasis):
            recover_transform(basis, np.zeros((d, d)))


def test_recover_transform_shape_checks():
    with pytest.raises(DimensionMismatch):
        recover_transform(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        recover_transform(np.ones((2, 3)), np.ones((2, 3)))


def test_is_full_rank_basic():
    assert is_full_rank(np.eye(2))
    assert not is_full_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_is_full_rank_requires_a_square_matrix(shape):
    with pytest.raises(DimensionMismatch, match="expected a square matrix"):
        is_full_rank(np.ones(shape))


def test_is_full_rank_fixture_matrices():
    for m in DEMO2D_MATRICES + FAULT_MATRICES:
        assert is_full_rank(m)


def test_is_full_rank_threshold():
    nearly = np.array([[1.0, 0.0], [0.0, 1e-9]])
    assert is_full_rank(nearly, tol=1e-12)
    assert not is_full_rank(nearly, tol=1e-6)


def test_mat_approx_eq():
    m = DEMO2D_MATRICES[0]
    assert mat_approx_eq(m, m, 1e-9)
    bump = np.zeros_like(m)
    bump[0, 0] = 2e-9
    assert not mat_approx_eq(m, m + bump, 1e-9)
    assert mat_approx_eq(m, m + bump / 4, 1e-9)
    with pytest.raises(DimensionMismatch):
        mat_approx_eq(np.eye(2), np.eye(3))


def test_recovered_label_matches_stored():
    basis = np.array([[1.69, 1.2], [1.67, 0.6]])
    image = np.array([[2.012, 0.96], [-0.181, -0.48]])
    assert mat_approx_eq(recover_transform(basis, image), DEMO2D_MATRICES[1], 1e-9)


def test_recover_transform_keeps_pivot_threshold():
    # LAPACK would solve against this basis; the pivot test refuses it first
    basis = np.diag([1.0, 1e-13])
    m = np.array([[2.0, 1.0], [0.5, -3.0]])
    with pytest.raises(SingularBasis):
        recover_transform(basis, m @ basis)
    assert mat_approx_eq(recover_transform(basis, m @ basis, tol=1e-14), m, 1e-12)
    with pytest.raises(SingularBasis):
        recover_transform(np.zeros((3, 3)), np.zeros((3, 3)))


def recover_by_loop(bases, images, tol):
    """Reference for recover_transforms: recover_transform on each basis in
    turn, stopping at the first SingularBasis."""
    recovered = []
    for basis, image in zip(bases, images):
        try:
            recovered.append(recover_transform(basis, image, tol))
        except SingularBasis as exc:
            return recovered, str(exc)
    return recovered, None


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 20), k=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       degenerate=st.sampled_from([0.0, 0.1, 0.3]),
       tol=st.sampled_from([1e-12, 1e-9]))
def test_recover_transforms_matches_single_recoveries(d, k, seed, degenerate, tol):
    # some bases get a column that nearly or exactly repeats another, or a
    # tiny column, so stacks fail at varied matrices and columns
    rng = np.random.default_rng(seed)
    bases = rng.uniform(-1, 1, (k, d, d))
    images = rng.uniform(-1, 1, (k, d, d))
    for basis in bases:
        if rng.random() < degenerate:
            c, c2 = rng.integers(d), rng.integers(d)
            scale = rng.choice([0.0, 1.0, 1 + 1e-13, 1 + 1e-10])
            basis[:, c2] = (basis[:, c] if c != c2 else 1e-11) * scale
    expected, expected_error = recover_by_loop(bases, images, tol)
    recovered, error = recover_transforms(bases, images, tol)
    assert len(recovered) == len(expected)
    for got, want in zip(recovered, expected):
        assert np.array_equal(got, want)
    assert (str(error) if error else None) == expected_error
    assert (error is None) == (len(recovered) == k)


def test_recover_transforms_reports_first_failing_basis():
    # basis 2 fails at column 1, basis 0 only at its last column
    bases = np.stack([np.diag([1.0, 1.0, 1e-13]), np.eye(3), np.diag([1.0, 0.0, 1.0])])
    recovered, error = recover_transforms(bases, bases)
    assert len(recovered) == 0
    assert "at column 2" in str(error)
    recovered, error = recover_transforms(bases[1:], bases[1:])
    assert np.array_equal(recovered[0], np.eye(3))
    assert "at column 1" in str(error)


def test_recover_transforms_shape_checks():
    with pytest.raises(DimensionMismatch):
        recover_transforms(np.ones((2, 2, 3)), np.ones((2, 2, 3)))
    with pytest.raises(DimensionMismatch):
        recover_transforms(np.ones((2, 3, 3)), np.ones((1, 3, 3)))


def test_recover_transform_refuses_non_finite_result():
    # M @ M overflows: the basis M passes the pivot test, the image is inf
    m = np.array([[1e200, 1.0], [1.0, 1e200]])
    with np.errstate(over="ignore"):
        image = m @ m
    with pytest.raises(SingularBasis, match=r"not finite: entry \(0, 0\) is inf"):
        recover_transform(m, image)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularBasis,
                                                                     match="is nan"):
        recover_transform(image, image @ m)


def test_recover_transforms_stops_at_non_finite_result():
    rng = np.random.default_rng(5)
    bases = rng.uniform(-1, 1, (5, 3, 3))
    images = rng.uniform(-1, 1, (5, 3, 3))
    images[2, 1, 0] = np.inf
    images[4, 0, 0] = np.nan
    recovered, error = recover_transforms(bases, images)
    assert len(recovered) == 2 and np.isfinite(recovered).all()
    for got, basis, image in zip(recovered, bases, images):
        assert np.array_equal(got, recover_transform(basis, image))
    with pytest.raises(SingularBasis) as single:
        recover_transform(bases[2], images[2])
    assert "not finite" in str(error) and str(error) == str(single.value)


@st.composite
def memo_stacks(draw):
    """A stack drawn with repeats from a pool of bases, some near-singular
    or singular, with images that may be non-finite, and a set of bases
    known to pass the pivot test, some of them from the pool."""
    d, k = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    tol = draw(st.sampled_from([1e-12, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.uniform(-1, 1, (draw(st.integers(1, 8)), d, d))
    for basis in pool:
        if rng.random() < draw(st.sampled_from([0.0, 0.2, 0.5])):
            c, c2 = rng.integers(d), rng.integers(d)
            scale = rng.choice([0.0, 1.0, 1 + 1e-13, 1 + 1e-10])
            basis[:, c2] = (basis[:, c] if c != c2 else 1e-11) * scale
    bases = pool[rng.integers(len(pool), size=k)]
    images = rng.uniform(-1, 1, (k, d, d))
    for r in np.flatnonzero(rng.random(k) < draw(st.sampled_from([0.0, 0.05]))):
        images[r, rng.integers(d), rng.integers(d)] = rng.choice([np.inf, -np.inf, np.nan])
    known = {rng.uniform(-1, 1, (d, d)).tobytes()}
    known |= {b.tobytes() for b in pool
              if is_full_rank(b.T, tol) and draw(st.booleans())}
    return bases, images, tol, known


@settings(max_examples=150, deadline=None)
@given(case=memo_stacks())
def test_recover_transforms_with_known_bases_matches_single_recoveries(case):
    bases, images, tol, known = case
    expected, expected_error = recover_by_loop(bases, images, tol)
    prior = set(known)
    for memo in (known, None):
        recovered, error = recover_transforms(bases, images, tol, memo)
        assert len(recovered) == len(expected)
        for got, want in zip(recovered, expected):
            assert np.array_equal(got, want)
        assert (str(error) if error else None) == expected_error
        assert error is None or type(error) is SingularBasis
    assert known == prior | {b.tobytes() for b in bases[:len(expected)]}


def test_recover_transforms_tests_each_distinct_basis_once(monkeypatch):
    tested = []
    eliminate = linalg._forward_eliminate_stack

    def counting(a, tol):
        tested.append(a.shape[2])
        return eliminate(a, tol)

    monkeypatch.setattr(linalg, "_forward_eliminate_stack", counting)
    rng = np.random.default_rng(2)
    pool = rng.uniform(-1, 1, (3, 4, 4))
    singular = pool[2].copy()
    singular[:, 3] = singular[:, 0]
    bases = pool[[0, 1, 0, 1, 0]]
    images = rng.uniform(-1, 1, (5, 4, 4))
    known = set()
    recover_transforms(bases, images, known=known)
    recover_transforms(bases[::-1], images, known=known)
    assert tested == [2]  # the second stack is all known
    failing = np.stack([pool[0], singular, pool[1], singular])
    recovered, error = recover_transforms(failing, images[:4], known=known)
    assert tested == [2, 1] and len(recovered) == 1 and isinstance(error, SingularBasis)
    recover_transforms(failing, images[:4], known=known)
    assert tested == [2, 1, 1]  # a failing basis never enters the set
    assert known == {pool[0].tobytes(), pool[1].tobytes()}
