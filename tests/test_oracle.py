"""Exact enumeration oracle: expectation identities and their breakdown."""

import numpy as np
import pytest

from detavg import linalg
from detavg.errors import EnumerationBudgetExceeded
from detavg.objective import Dataset, LossKind, Objective
from detavg.oracle import (
    Component,
    RandomRankOneSum,
    expect_adjugate,
    expect_det,
    expect_inverse,
    expect_uniform_newton_bias,
    expect_weighted_inverse,
    hand_checked_instance,
    hessian_sketch_model,
    identity_suite,
    random_model,
    rank_two_counterexample,
)


def test_hand_checked_instance_values():
    model = hand_checked_instance()
    assert expect_det(model) == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(model.mean(), [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)
    assert linalg.det_cofactor(model.mean()) == pytest.approx(0.75, abs=1e-15)
    adj = expect_adjugate(model)
    assert np.allclose(adj, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)


def test_identities_on_random_models():
    # E[det] = det(E), E[adj] = adj(E) over mixed finite-support scale laws
    rng = np.random.default_rng(89)
    for _ in range(50):
        model = random_model(rng, max_n=8, max_d=3)
        mean = model.mean()
        det_mean = linalg.det_cofactor(mean)
        assert abs(expect_det(model) - det_mean) <= 1e-12 * max(1.0, abs(det_mean))
        adj_mean = linalg.adjugate_cofactor(mean)
        assert np.abs(expect_adjugate(model) - adj_mean).max() <= 1e-12 * max(
            1.0, np.abs(adj_mean).max()
        )


def test_weighted_inverse_identity():
    # E[det(A) inv(A)] / E[det A] recovers inv(E[A]); inversion goes through
    # LAPACK while the determinant comes from cofactor expansion
    rng = np.random.default_rng(97)
    for _ in range(20):
        model = random_model(rng, max_n=6, max_d=3)
        target = np.linalg.inv(model.mean())
        got = expect_weighted_inverse(model)
        assert np.abs(got - target).max() <= 1e-12 * max(1.0, np.abs(target).max())


def test_non_bernoulli_two_point_law():
    # s_i in {0.5, 1.5} with equal probability: identity still exact
    rng = np.random.default_rng(101)
    comps = tuple(
        Component(np.outer(z, z), (0.5, 1.5), (0.5, 0.5))
        for z in rng.standard_normal((3, 2))
    )
    model = RandomRankOneSum(components=comps, base=0.7 * np.eye(2))
    det_mean = linalg.det_cofactor(model.mean())
    assert abs(expect_det(model) - det_mean) <= 1e-13 * max(1.0, abs(det_mean))


def test_rank_two_component_breaks_identity():
    model = rank_two_counterexample()
    gap = abs(expect_det(model) - linalg.det_cofactor(model.mean()))
    # E[det(s I)] = 2 while det(E[s] I) = 1
    assert gap == pytest.approx(1.0, abs=1e-12)
    assert gap >= 1e-6


def test_unweighted_inverse_is_biased():
    # the quantity uniform averaging converges to differs from inv(E[A])
    rng = np.random.default_rng(103)
    X = rng.standard_normal((4, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(4)), LossKind.SQUARE, lam=0.1)
    model = hessian_sketch_model(obj, np.zeros(2), k=2)
    plain = expect_inverse(model)
    target = np.linalg.inv(model.mean())
    assert np.abs(plain - target).max() >= 1e-3


def test_sketch_model_mean_is_the_hessian():
    rng = np.random.default_rng(107)
    X = rng.standard_normal((6, 3))
    y = (rng.random(6) < 0.5).astype(float)
    obj = Objective(Dataset(X=X, y=y), LossKind.LOGISTIC, lam=0.3)
    w = rng.standard_normal(3)
    model = hessian_sketch_model(obj, w, k=2)
    assert np.allclose(model.mean(), obj.hessian(w), atol=1e-12)


def test_weighted_inverse_solves_newton_step():
    # determinant weighting recovers the exact step through the sketch model
    rng = np.random.default_rng(109)
    X = rng.standard_normal((5, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(5)), LossKind.SQUARE, lam=0.2)
    w = np.zeros(2)
    model = hessian_sketch_model(obj, w, k=2)
    step = expect_weighted_inverse(model) @ obj.gradient(w)
    assert np.allclose(step, obj.exact_newton_step(w), atol=1e-12)


def test_uniform_newton_bias_two_routes_agree():
    # mask enumeration through the sketch pipeline vs the rank-one-sum model
    rng = np.random.default_rng(113)
    X = rng.standard_normal((5, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(5)), LossKind.SQUARE, lam=0.15)
    w = np.array([0.2, -0.4])
    k = 2
    bias = expect_uniform_newton_bias(obj, w, k)
    model = hessian_sketch_model(obj, w, k)
    via_model = expect_inverse(model) @ obj.gradient(w) - obj.exact_newton_step(w)
    assert np.allclose(bias, via_model, atol=1e-12)
    assert np.linalg.norm(bias) > 0


def test_uniform_newton_bias_vanishes_at_huge_ridge():
    # lam -> infinity: every subsampled Hessian collapses to lam I
    rng = np.random.default_rng(127)
    X = rng.standard_normal((4, 2))
    obj = Objective(Dataset(X=X, y=rng.standard_normal(4)), LossKind.SQUARE, lam=1e8)
    bias = expect_uniform_newton_bias(obj, np.zeros(2), k=2)
    assert np.linalg.norm(bias) <= 1e-10


def test_enumeration_budget():
    z = np.ones((1, 1))
    comps = tuple(Component(z, (0.0, 1.0), (0.5, 0.5)) for _ in range(21))
    with pytest.raises(EnumerationBudgetExceeded):
        list(RandomRankOneSum(components=comps, base=np.eye(1)).outcomes())
    # 3^13 outcomes exceed the 2^20 outcome cap even with few components
    comps3 = tuple(Component(z, (0.0, 1.0, 2.0), (0.3, 0.3, 0.4)) for _ in range(13))
    with pytest.raises(EnumerationBudgetExceeded):
        list(RandomRankOneSum(components=comps3, base=np.eye(1)).outcomes())
    rng = np.random.default_rng(1)
    big = Dataset(X=rng.standard_normal((21, 2)), y=rng.standard_normal(21))
    with pytest.raises(EnumerationBudgetExceeded):
        expect_uniform_newton_bias(
            Objective(big, LossKind.SQUARE, lam=0.1), np.zeros(2), k=5
        )
    for max_n in (13, 21):
        with pytest.raises(EnumerationBudgetExceeded, match="max_n"):
            identity_suite(models=1, max_n=max_n)


def test_model_validation():
    with pytest.raises(ValueError):
        Component(np.eye(2), (1.0,), (0.9,))  # probs do not sum to 1
    with pytest.raises(ValueError):
        Component(np.eye(2), (1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        RandomRankOneSum(components=(), base=np.eye(2))
    with pytest.raises(ValueError):
        RandomRankOneSum(
            components=(Component(np.eye(2), (1.0,), (1.0,)),), base=np.eye(3)
        )
    with pytest.raises(ValueError):
        RandomRankOneSum.bernoulli([np.eye(2)], gamma=0.0, base=np.eye(2))
    with pytest.raises(ValueError, match="max_d"):
        identity_suite(models=1, max_d=0)
    with pytest.raises(ValueError, match="max_n"):
        identity_suite(models=1, max_n=1)


def test_identity_suite_report():
    report = identity_suite(models=25, max_n=6, max_d=3, seed=5)
    assert report.models == 25
    assert report.max_identity_dev <= 1e-12
    assert report.hand_instance_dev <= 1e-12
    assert report.counterexample_gap >= 1e-6
