"""Unit tests for the dense symmetric linear algebra kernel."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from detavg import linalg
from detavg.errors import NegativeQuadraticForm, NotPositiveDefinite


def random_pd(rng, d, ridge=0.1):
    A = rng.standard_normal((d, d))
    return A @ A.T + ridge * np.eye(d)


def log_det(M):
    return float(linalg.factor_solve(M, np.zeros(len(M)))[1])


def test_cholesky_reconstructs_hand_instance():
    # inv [[2,1],[1,2]] = [[2,-1],[-1,2]] / 3 and det = 3, from one factor
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    x, log_det_M = linalg.factor_solve(M, np.array([1.0, 0.0]))
    assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], atol=1e-14)
    inv, _ = linalg.factor_solve(M, np.eye(2))
    assert np.allclose(inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-14)
    assert log_det_M == pytest.approx(np.log(3.0), rel=1e-12)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, 0.0], [0.0, -1.0]]),  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
        np.array([[0.0]]),
    ],
)
def test_cholesky_rejects_non_pd(M):
    with pytest.raises(NotPositiveDefinite):
        linalg.solve_psd(M, np.ones(len(M)))


def test_log_det_hand_instance():
    # det [[2,1],[1,2]] = 3
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert log_det(M) == pytest.approx(np.log(3.0), rel=1e-12)


def test_log_det_matches_cofactor_determinant():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        M = random_pd(rng, d)
        det = linalg.det_cofactor(M)
        assert np.exp(log_det(M)) == pytest.approx(det, rel=1e-10)


def test_log_det_extreme_scale_stays_finite():
    # det would overflow / underflow as a plain float at these scales
    d = 40
    assert log_det(1e30 * np.eye(d)) == pytest.approx(d * np.log(1e30))
    assert log_det(1e-30 * np.eye(d)) == pytest.approx(-d * np.log(1e30))


def test_adjugate_hand_instances():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(linalg.adjugate(M), [[2.0, -1.0], [-1.0, 2.0]])
    # rank-1 input: adjugate is still well defined
    R = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(linalg.adjugate(R), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(linalg.adjugate(np.eye(1)), [[1.0]])


def test_adjugate_identity_on_random_symmetric():
    # adj(M) M = det(M) I for PD, indefinite, and near-singular inputs alike
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        M = linalg.symmetrize(rng.standard_normal((d, d)))
        det = linalg.det_cofactor(M)
        resid = linalg.adjugate(M) @ M - det * np.eye(d)
        assert np.abs(resid).max() <= 1e-9 * max(1.0, abs(det))


def test_adjugate_identity_on_singular_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        z = rng.standard_normal(d)
        M = np.outer(z, z)  # rank 1, singular for d >= 2
        resid = linalg.adjugate(M) @ M
        assert np.abs(resid).max() <= 1e-9


def test_adjugate_paths_agree_small_pd():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        M = random_pd(rng, d)
        by_cofactor = linalg.adjugate_cofactor(M)
        by_chol = np.exp(log_det(M)) * linalg.solve_psd(M, np.eye(d))
        scale = max(1.0, np.abs(by_cofactor).max())
        assert np.abs(by_cofactor - by_chol).max() <= 1e-8 * scale


def test_adjugate_large_dim_uses_pd_path():
    rng = np.random.default_rng(19)
    for d in (6, 8):
        M = random_pd(rng, d)
        adj = linalg.adjugate(M)
        det = np.exp(log_det(M))
        resid = adj @ M - det * np.eye(d)
        assert np.abs(resid).max() <= 1e-8 * max(1.0, det)
        # cofactor expansion still works at d=6..8, just slowly; cross-check
        scale = max(1.0, np.abs(adj).max())
        assert np.abs(adj - linalg.adjugate_cofactor(M)).max() <= 1e-8 * scale


def test_adjugate_large_dim_requires_pd():
    M = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        linalg.adjugate(M)


def test_sylvester_rank_one_update():
    # det(A + u v^T) = det(A) + v^T adj(A) u
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d))
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        lhs = linalg.det_cofactor(A + np.outer(u, v))
        rhs = linalg.det_cofactor(A) + v @ linalg.adjugate_cofactor(A) @ u
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_solve_hand_instance():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = linalg.solve_psd(M, np.array([1.0, 0.0]))
    assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], atol=1e-14)


def test_solve_residual_small():
    rng = np.random.default_rng(29)
    for _ in range(25):
        d = int(rng.integers(1, 12))
        M = random_pd(rng, d)
        v = rng.standard_normal(d)
        x = linalg.solve_psd(M, v)
        assert np.linalg.norm(M @ x - v) <= 1e-8 * max(1.0, np.linalg.norm(v))


def test_solve_rejects_shape_mismatch():
    M = np.eye(3)
    with pytest.raises(ValueError):
        linalg.solve_psd(M, np.ones(4))


def test_mahalanobis_hand_instance():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert linalg.mahalanobis_norm(np.array([1.0, 1.0]), M) == pytest.approx(np.sqrt(6.0))


def test_mahalanobis_clamps_rounding_and_rejects_indefinite():
    # v in the null space of a PSD matrix: quadratic form is 0 up to rounding
    z = np.array([1.0, -1.0])
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert linalg.mahalanobis_norm(z, M) == 0.0
    with pytest.raises(NegativeQuadraticForm):
        linalg.mahalanobis_norm(np.array([0.0, 1.0]), np.diag([1.0, -1.0]))


def test_require_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.require_symmetric(np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 12),
    d=st.integers(1, 12),
    rhs_cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_solve_stack_equals_per_matrix_loop(b, d, rhs_cols, seed):
    # every slice bit for bit what one Cholesky plus cho_solve per matrix gives
    rng = np.random.default_rng(seed)
    M = np.array([linalg.symmetrize(random_pd(rng, d)) for _ in range(b)])
    rhs = rng.standard_normal(d if rhs_cols is None else (d, rhs_cols))
    x, log_dets = linalg.factor_solve(M, rhs)
    assert x.shape == (b, *rhs.shape) and log_dets.shape == (b,)
    for i in range(b):
        L = np.linalg.cholesky(M[i])
        assert np.array_equal(x[i], scipy.linalg.cho_solve((L, True), rhs, check_finite=False))
        assert log_dets[i] == float(2.0 * np.sum(np.log(np.diag(L))))


def test_factor_solve_names_first_failing_matrix():
    rng = np.random.default_rng(31)
    M = np.array([random_pd(rng, 3) for _ in range(5)])
    M[2] = np.diag([1.0, -1.0, 1.0])
    M[4] = np.zeros((3, 3))
    with pytest.raises(NotPositiveDefinite) as info:
        linalg.factor_solve(M, np.ones(3))
    assert info.value.index == 2
    assert "matrix 2 of the stack" in str(info.value)


def test_factor_solve_single_matrix():
    rng = np.random.default_rng(32)
    M = linalg.symmetrize(random_pd(rng, 4))
    rhs = rng.standard_normal(4)
    x, log_det = linalg.factor_solve(M, rhs)
    stacked_x, stacked_log_dets = linalg.factor_solve(M[None], rhs)
    assert np.array_equal(x, stacked_x[0]) and log_det == stacked_log_dets[0]
    with pytest.raises(NotPositiveDefinite) as info:
        linalg.factor_solve(np.diag([1.0, -1.0]), np.ones(2))
    assert info.value.index is None
    assert "stack" not in str(info.value)
