"""Subsampling masks: determinism, counts, and estimator unbiasedness."""

import numpy as np
import pytest

from detavg import linalg
from detavg.dataio import MAX_ENTRIES
from detavg.errors import InvalidSampleSize, NonFiniteResult, NotPositiveDefinite
from detavg.objective import Dataset, LossKind, Objective
from detavg.sketch import (
    SeedSpec,
    SketchMask,
    block_size,
    draw_mask,
    local_covariance,
    local_fleet,
    local_hessian,
)


def small_objective(seed=101, n=40, d=4, lam=0.25):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return Objective(Dataset(X=X, y=y), LossKind.SQUARE, lam=lam)


def test_mask_is_pure_function_of_seed_triple():
    a = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=5))
    b = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=5))
    assert np.array_equal(a.include, b.include)
    # changing any index of the triple changes the stream
    c = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=6))
    d = draw_mask(1000, 100, SeedSpec(7, trial=4, machine=5))
    e = draw_mask(1000, 100, SeedSpec(8, trial=3, machine=5))
    for other in (c, d, e):
        assert not np.array_equal(a.include, other.include)


def test_mask_count_matches_binomial():
    mask = draw_mask(100_000, 1000, SeedSpec(0))
    sigma = np.sqrt(100_000 * 0.01 * 0.99)
    assert abs(mask.count - 1000) <= 3 * sigma


def test_full_rate_includes_everything():
    mask = draw_mask(50, 50, SeedSpec(1))
    assert mask.count == 50


@pytest.mark.parametrize("k", [0, -3, 51])
def test_invalid_sample_size(k):
    with pytest.raises(InvalidSampleSize):
        draw_mask(50, k, SeedSpec(0))


def test_mask_shape_validation():
    with pytest.raises(ValueError):
        SketchMask(include=np.ones(3, dtype=bool), k=1, n=4)


def test_local_hessian_empty_mask_is_ridge():
    obj = small_objective()
    empty = SketchMask(include=np.zeros(40, dtype=bool), k=5, n=40)
    assert np.array_equal(local_hessian(obj, np.zeros(4), empty), 0.25 * np.eye(4))


def test_local_hessian_full_mask_is_exact():
    obj = small_objective()
    full = SketchMask(include=np.ones(40, dtype=bool), k=40, n=40)
    w = np.full(4, 0.3)
    assert np.allclose(local_hessian(obj, w, full), obj.hessian(w), atol=1e-14)


def test_local_hessian_rejects_foreign_mask():
    obj = small_objective()
    with pytest.raises(ValueError):
        local_hessian(obj, np.zeros(4), SketchMask(include=np.zeros(10, dtype=bool), k=2, n=10))


def test_local_covariance_empty_and_full():
    obj = small_objective()
    data = obj.data
    empty = SketchMask(include=np.zeros(40, dtype=bool), k=5, n=40)
    assert np.array_equal(local_covariance(data, empty), np.zeros((4, 4)))
    full = SketchMask(include=np.ones(40, dtype=bool), k=40, n=40)
    assert np.allclose(local_covariance(data, full), data.X.T @ data.X / 40, atol=1e-14)


def test_subsampled_estimates_are_unbiased():
    # Monte Carlo over 10^4 masks: entrywise mean within 3 standard errors
    obj = small_objective(lam=0.1)
    data = obj.data
    w = np.array([0.5, -0.2, 0.1, 0.8])
    H = obj.hessian(w)
    C = data.X.T @ data.X / data.n
    T = 10_000
    k = 8
    h_sum = np.zeros((4, 4))
    h_sq = np.zeros((4, 4))
    c_sum = np.zeros((4, 4))
    c_sq = np.zeros((4, 4))
    for t in range(T):
        mask = draw_mask(data.n, k, SeedSpec(202, trial=t))
        Hh = local_hessian(obj, w, mask)
        Cc = local_covariance(data, mask)
        h_sum += Hh
        h_sq += Hh**2
        c_sum += Cc
        c_sq += Cc**2
    for total, sq, target in ((h_sum, h_sq, H), (c_sum, c_sq, C)):
        mean = total / T
        var = sq / T - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / T)
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)


D_FLEET = 30
BLOCK_FLEET = block_size(D_FLEET * D_FLEET)


def fleet_with_one_bad_machine(bad, scale):
    """Fleet of identity matrices in which machine ``bad`` is ``scale * I``,
    solved by :func:`linalg.factor_solve`."""
    built = []

    def build(mask):
        built.append(mask)
        return np.eye(D_FLEET) * (scale if len(built) == bad + 1 else 1.0)

    def decompose(stack):
        return linalg.factor_solve(stack, np.ones(D_FLEET))

    return build, decompose, built


@pytest.mark.parametrize("scale, error, text", [
    (-1.0, NotPositiveDefinite, "is not positive definite"),
    (1e-320, NonFiniteResult, "has a non-finite result"),
])
def test_local_fleet_names_the_failing_machine(scale, error, text):
    # the bad machine sits in the second stack, so its index is block-relative there
    bad = BLOCK_FLEET + 2
    build, decompose, built = fleet_with_one_bad_machine(bad, scale)
    with pytest.raises(error) as info:
        local_fleet(build, decompose, 10, D_FLEET, 1, BLOCK_FLEET + 5, 7, 3)
    assert f"(seed, trial, machine) = (7, 3, {bad}) {text}" in str(info.value)
    if error is NotPositiveDefinite:
        assert info.value.index == bad
    assert len(built) == BLOCK_FLEET + 5  # the whole second stack was built


def test_local_fleet_refuses_oversized_outputs_before_allocating():
    # m alone is under the cap, so the first stack is drawn and gives the sizes
    build, decompose, built = fleet_with_one_bad_machine(-1, 1.0)
    m = MAX_ENTRIES // (D_FLEET + 1) + 1  # steps (m, d) plus log-dets (m,)
    with pytest.raises(ValueError, match=f"m={m} machines"):
        local_fleet(build, decompose, 10, D_FLEET, 1, m, 0, 0)
    assert len(built) == BLOCK_FLEET
    # m above the cap is refused before any draw
    built.clear()
    with pytest.raises(ValueError, match=f"m={MAX_ENTRIES + 1} machines"):
        local_fleet(build, decompose, 10, D_FLEET, 1, MAX_ENTRIES + 1, 0, 0)
    assert built == []
    steps, log_dets = local_fleet(build, decompose, 10, D_FLEET, 1, 3, 0, 0)
    assert np.array_equal(steps, np.ones((3, D_FLEET))) and np.array_equal(log_dets, np.zeros(3))
