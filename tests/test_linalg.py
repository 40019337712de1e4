"""Unit tests for the dense symmetric linear algebra kernel."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detavg import linalg
from detavg.errors import NegativeQuadraticForm, NonFiniteResult, NotPositiveDefinite


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
        A = rng.standard_normal((d, d))
        M = 0.5 * (A + A.T)
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


@settings(max_examples=80, deadline=None)
@given(
    lead=st.sampled_from([(1,), (6,), (3, 2)]),
    d=st.integers(1, 5),
    kind=st.sampled_from(["general", "symmetric", "rank_one", "integer", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cofactor_stack_equals_per_slice(lead, d, kind, seed):
    # every slice bit for bit what the single-matrix call gives; rank-one
    # (singular for d > 1), indefinite and integer stacks included
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((*lead, d, d))
    z = rng.standard_normal((*lead, d))
    rank_one = z[..., :, None] * z[..., None, :]
    if kind == "symmetric":
        M = M + np.swapaxes(M, -1, -2)
    elif kind == "rank_one":
        M = rank_one
    elif kind == "integer":
        M = np.round(2 * M)
    elif kind == "mixed":
        M = np.where(rng.random((*lead, 1, 1)) < 0.5, rank_one, M)
    dets, adjs = linalg.det_cofactor(M), linalg.adjugate_cofactor(M)
    assert dets.shape == lead and adjs.shape == M.shape
    for idx in np.ndindex(*lead):
        det = linalg.det_cofactor(M[idx])
        assert isinstance(det, float) and np.float64(det).tobytes() == dets[idx].tobytes()
        adj = linalg.adjugate_cofactor(M[idx])
        assert adj.shape == (d, d) and adj.tobytes() == adjs[idx].tobytes()


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
    # a form of -inf is rescaled first; finite and negative then, it still raises
    with pytest.raises(NegativeQuadraticForm, match="= -1.0 <"):
        linalg.mahalanobis_norm(np.array([0.0, 1e200]), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("v", [np.array([1e200, 0.0]), np.array([np.nan, 0.0])])
def test_mahalanobis_rejects_non_finite_form(v):
    # a norm past float max (1e350 here) or NaN raises instead of warning
    # and returning inf or nan
    with pytest.raises(NonFiniteResult):
        linalg.mahalanobis_norm(v, 1e300 * np.eye(2))


def test_mahalanobis_overflowed_form_is_rescaled_not_indefinite():
    # a diverging Newton iterate's H-norm: v @ M is [-7.9e163, -5.2e164], so
    # the two products overflow to -inf and +inf, and a fused multiply-add
    # accumulation reads the form as -inf (NaN without one).  Either is an
    # overflow of a positive form, not an indefinite M.
    M = np.array([[1.7, 0.38], [0.38, 1.28]])
    v = np.array([4.67e163, -4.17e164])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(float(v @ M @ v))
    u = v / 4.17e164
    assert linalg.mahalanobis_norm(v, M) == pytest.approx(4.17e164 * math.sqrt(u @ M @ u),
                                                          rel=1e-15)


def test_norms_past_sqrt_float_max_read_finite():
    v = np.array([3e200, -4e200])
    assert linalg.norm(v) == pytest.approx(5e200, rel=1e-15)
    assert linalg.mahalanobis_norm(v, 4.0 * np.eye(2)) == pytest.approx(1e201, rel=1e-15)
    rows = np.array([[3.0, 4.0], [3e200, -4e200], [np.inf, 0.0], [1.7e308, 1.7e308]])
    assert np.array_equal(linalg.norm(rows)[:3], [5.0, linalg.norm(v), np.inf])
    assert linalg.norm(rows)[3] == np.inf  # the norm itself is past float max


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), exponent=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
def test_norms_below_the_overflow_keep_numpys_bytes(d, exponent, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, d)) * 10.0**exponent
    S = random_pd(rng, d)
    M = 0.5 * (S + S.T)
    assert np.array_equal(linalg.norm(rows), np.linalg.norm(rows, axis=1))
    for v in rows:
        assert linalg.norm(v) == float(np.linalg.norm(v))
        assert linalg.mahalanobis_norm(v, M) == float(np.sqrt(max(float(v @ M @ v), 0.0)))


def test_require_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.require_symmetric(np.ones((2, 3)))


# factor_solve against scipy's cho_solve, whose substitutions sum in another
# order: on 1500 random_pd draws up to d=65 the two differed by at most
# 1.5e-15 relative and the residual stayed below 3e-16
SOLVE_RTOL = 1e-10  # ||x - cho_solve|| / ||cho_solve||
RESIDUAL_RTOL = 1e-13  # ||M x - rhs|| / (||M|| ||x||)


def assert_solves(M, rhs, x):
    want = scipy.linalg.cho_solve((np.linalg.cholesky(M), True), rhs, check_finite=False)
    assert np.linalg.norm(x - want) <= SOLVE_RTOL * np.linalg.norm(want)
    residual = np.linalg.norm(M @ x - rhs)
    assert residual <= RESIDUAL_RTOL * np.linalg.norm(M, 2) * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 12),
    d=st.integers(1, 12) | st.just(65),
    rhs_cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(b=3, d=1, rhs_cols=None, seed=1)
@example(b=3, d=1, rhs_cols=3, seed=1)
@example(b=3, d=2, rhs_cols=None, seed=2)
@example(b=3, d=2, rhs_cols=3, seed=2)
@example(b=3, d=10, rhs_cols=None, seed=10)
@example(b=3, d=10, rhs_cols=3, seed=10)
@example(b=3, d=65, rhs_cols=None, seed=65)
@example(b=3, d=65, rhs_cols=3, seed=65)
def test_factor_solve_stack_equals_per_matrix_loop(b, d, rhs_cols, seed):
    # every slice is, byte for byte, that matrix factored and solved alone,
    # and solves it as scipy's cho_solve does, to rounding
    rng = np.random.default_rng(seed)
    S = np.array([random_pd(rng, d) for _ in range(b)])
    M = 0.5 * (S + S.transpose(0, 2, 1))
    rhs = rng.standard_normal(d if rhs_cols is None else (d, rhs_cols))
    x, log_dets = linalg.factor_solve(M, rhs)
    assert x.shape == (b, *rhs.shape) and log_dets.shape == (b,)
    for i in range(b):
        alone, log_det_alone = linalg.factor_solve(M[i], rhs)
        assert x[i].tobytes() == alone.tobytes() and log_dets[i] == log_det_alone
        assert log_dets[i] == float(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(M[i])))))
        assert_solves(M[i], rhs, x[i])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12) | st.just(65), r=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(d=1, r=1, seed=1)
@example(d=65, r=40, seed=65)
def test_inverse_forms_equal_solved_forms(d, r, seed):
    # ||L^-1 v||^2, L^-1 from one forward substitution, against v^T x with x
    # from scipy's cho_solve, which runs both halves; sums of positive terms,
    # so the two agree to the rounding of the solve
    rng = np.random.default_rng(seed)
    S = random_pd(rng, d)
    M = 0.5 * (S + S.T)
    V = rng.standard_normal((d, r))
    want = np.einsum("ij,ij->j", V, scipy.linalg.cho_solve((np.linalg.cholesky(M), True), V))
    forms = linalg.inverse_forms(M, V)
    assert forms.shape == (r,) and np.all(forms > 0)
    assert np.allclose(forms, want, rtol=SOLVE_RTOL, atol=0.0)
    with pytest.raises(NotPositiveDefinite):
        linalg.inverse_forms(-M, V)


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
    S = random_pd(rng, 4)
    M = 0.5 * (S + S.T)
    rhs = rng.standard_normal(4)
    x, log_det = linalg.factor_solve(M, rhs)
    stacked_x, stacked_log_dets = linalg.factor_solve(M[None], rhs)
    assert np.array_equal(x, stacked_x[0]) and log_det == stacked_log_dets[0]
    with pytest.raises(NotPositiveDefinite) as info:
        linalg.factor_solve(np.diag([1.0, -1.0]), np.ones(2))
    assert info.value.index is None
    assert "stack" not in str(info.value)


# The substitutions as they were before they held the solution stack-last:
# the slow path, kept verbatim, that factor_solve and inverse_forms must
# equal byte for byte.
def reference_forward(L: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(y, D)`` with ``y[i] = L[i]^-1 rhs`` for a stack of lower triangular
    factors with positive diagonals D, shape (b, d, d), which it overwrites
    with their unit lower triangular parts ``U = L D^-1``.

    It solves ``U z = rhs`` forward and divides by D.  Each step subtracts an
    entry of z, once final, from the rows still open, so every operation is
    elementwise across the stack and no slice depends on another.  A matrix
    right-hand side (d, r) gets D of shape (b, d, 1), to broadcast over its
    columns.
    """
    d = L.shape[-1]
    y = np.empty((len(L), *np.shape(rhs)))
    y[:] = rhs
    diag = np.diagonal(L, axis1=1, axis2=2).copy()
    with np.errstate(all="ignore"):  # an overflowing solve reads inf or NaN
        L *= (1.0 / diag)[:, None, :]
        if y.ndim == 3:
            L, diag = L[..., None], diag[..., None]
        for k in range(d - 1):
            rest = y[:, k + 1:]
            rest -= L[:, k + 1:, k] * y[:, k, None]
        y /= diag
    return y, diag


def reference_substitute(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x[i]`` with ``L[i] L[i]^T x[i] = rhs`` for a stack of lower triangular
    factors with positive diagonals, shape (b, d, d), which it overwrites.

    :func:`reference_forward` gives ``y = L^-1 rhs`` and ``U = L D^-1``; it
    divides y by D once more and solves ``U^T x = y / D`` back, one entry at
    a time.
    """
    x, diag = reference_forward(L, rhs)
    if x.ndim == 3:
        L = L[..., None]
    with np.errstate(all="ignore"):
        x /= diag
        for k in range(L.shape[1] - 1, 0, -1):
            rest = x[:, :k]
            rest -= L[:, k, :k] * x[:, k, None]
    return x


# matrix scale and right-hand side scale: plain, and solves whose entries
# pass float max, so that inf and NaN come out of the substitutions
SCALES = st.sampled_from([(1.0, 1.0), (1e-300, 1e300), (1e-200, 1e150), (1e-10, 1e300)])


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(1, 70),
    d=st.integers(1, 70),
    rhs_cols=st.sampled_from([None, 1, 3]),
    scales=SCALES,
    seed=st.integers(0, 2**32 - 1),
)
@example(b=31, d=65, rhs_cols=None, scales=(1.0, 1.0), seed=31)
@example(b=62, d=65, rhs_cols=None, scales=(1.0, 1.0), seed=62)
@example(b=62, d=65, rhs_cols=3, scales=(1e-300, 1e300), seed=62)
@example(b=31, d=65, rhs_cols=None, scales=(1e-300, 1e300), seed=3)
@example(b=1, d=1, rhs_cols=None, scales=(1.0, 1.0), seed=1)
@example(b=70, d=70, rhs_cols=1, scales=(1e-10, 1e300), seed=70)
def test_substitutions_give_the_reference_bytes(b, d, rhs_cols, scales, seed):
    # factor_solve on the stack and on each matrix, and inverse_forms, give
    # the bytes of the reference substitutions, inf and NaN in the same places
    rng = np.random.default_rng(seed)
    S = np.array([random_pd(rng, d) for _ in range(b)])
    M = scales[0] * 0.5 * (S + S.transpose(0, 2, 1))
    rhs = scales[1] * rng.standard_normal(d if rhs_cols is None else (d, rhs_cols))
    L = np.linalg.cholesky(M)
    want = reference_substitute(L.copy(), rhs)
    x, _ = linalg.factor_solve(M, rhs)
    assert x.shape == want.shape and x.tobytes() == want.tobytes()
    for i in (0, b - 1):
        assert linalg.factor_solve(M[i], rhs)[0].tobytes() == want[i].tobytes()
    if scales == (1e-300, 1e300):
        assert not np.isfinite(want).all()
    V = rng.standard_normal((d, 4))
    Y = reference_forward(L[-1:].copy(), np.eye(d))[0][0] @ V
    with np.errstate(all="ignore"):
        forms = np.einsum("ij,ij->j", Y, Y)
    assert linalg.inverse_forms(M[-1], V).tobytes() == forms.tobytes()
