import numpy as np
import pytest

from switchlearn import (DimensionMismatch, SingularBasis, identity,
                         is_full_rank, mat_approx_eq, recover_transform)

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
        recovered = recover_transform(basis, a @ basis)
        assert mat_approx_eq(recovered, a, 1e-8)


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


def test_recover_transform_refuses_only_a_basis_lapack_finds_singular():
    # a small pivot is no refusal: the solve does not depend on the basis's scale
    basis = np.diag([1.0, 1e-13])
    m = np.array([[2.0, 1.0], [0.5, -3.0]])
    assert mat_approx_eq(recover_transform(basis, m @ basis), m, 1e-12)
    # nor is a nearly repeated column: the solve does not judge its accuracy,
    # its callers do (output_query._derive)
    basis = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])
    assert np.isfinite(recover_transform(basis, np.eye(2))).all()
    with pytest.raises(SingularBasis, match="LAPACK found the basis singular"):
        recover_transform(np.zeros((3, 3)), np.zeros((3, 3)))


def test_recover_transform_refuses_non_finite_result():
    # M @ M overflows: the basis M is well-conditioned, the image is inf
    m = np.array([[1e200, 1.0], [1.0, 1e200]])
    with np.errstate(over="ignore"):
        image = m @ m
    with pytest.raises(SingularBasis, match=r"not finite: entry \(0, 0\) is inf"):
        recover_transform(m, image)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularBasis,
                                                                     match="is nan"):
        recover_transform(image, image @ m)
