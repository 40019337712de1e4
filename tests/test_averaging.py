"""Weighted combination: ratios in the log domain, prefix reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detavg.averaging import LocalEstimate, combine_determinantal, weighted_means
from detavg.errors import (
    DimensionMismatch,
    EmptyBatch,
    NonFiniteResult,
    NonFiniteWeight,
    NumericalError,
)
from detavg.newton import Scheme


def test_two_scalar_hand_instance():
    batch = [LocalEstimate(1.0, np.log(1.0)), LocalEstimate(3.0, np.log(3.0))]
    # (1*1 + 3*3) / (1 + 3)
    assert combine_determinantal(batch) == pytest.approx(2.5, rel=1e-14)
    # uniform merging is the same reduction with zero log-weights
    uniform = [LocalEstimate(e.value, 0.0) for e in batch]
    assert combine_determinantal(uniform) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("shift", [40000.0, -40000.0])
def test_extreme_log_weights(shift):
    # exp(shift) overflows or underflows; ratios must still be exact
    batch = [
        LocalEstimate(1.0, shift + np.log(1.0)),
        LocalEstimate(3.0, shift + np.log(3.0)),
    ]
    assert combine_determinantal(batch) == pytest.approx(2.5, rel=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(61)
    values = [rng.standard_normal((3, 3)) for _ in range(20)]
    logs = rng.uniform(-5, 5, size=20)
    base = combine_determinantal(
        [LocalEstimate(v, l) for v, l in zip(values, logs)]
    )
    for c in (137.5, 40000.0, -40000.0):
        shifted = combine_determinantal(
            [LocalEstimate(v, l + c) for v, l in zip(values, logs)]
        )
        assert np.abs(shifted - base).max() <= 1e-12 * max(1.0, np.abs(base).max())


def test_equal_weights_reduce_to_uniform():
    rng = np.random.default_rng(67)
    values = [rng.standard_normal(4) for _ in range(9)]
    batch = [LocalEstimate(v, 12.34) for v in values]
    det = combine_determinantal(batch)
    uni = weighted_means(np.stack(values), np.zeros(len(values)), [len(values)])[0]
    assert np.allclose(det, uni, rtol=1e-13, atol=1e-13)


def test_scalar_output_stays_in_convex_hull():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        vals = rng.standard_normal(n)
        logs = rng.uniform(-30, 30, size=n)
        out = combine_determinantal([LocalEstimate(float(v), float(l)) for v, l in zip(vals, logs)])
        assert vals.min() - 1e-12 <= out <= vals.max() + 1e-12


def test_single_estimate_passes_through_exactly():
    v = np.array([0.1, -2.7, 3.9])
    out = combine_determinantal([LocalEstimate(v, -123.4)])
    assert np.array_equal(out, v)


def test_empty_and_mismatched_batches():
    with pytest.raises(EmptyBatch):
        combine_determinantal([])
    bad = [LocalEstimate(np.zeros(2), 0.0), LocalEstimate(np.zeros(3), 0.0)]
    with pytest.raises(DimensionMismatch):
        combine_determinantal(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_log_weight_is_a_numerical_error(bad):
    batch = [LocalEstimate(np.ones(2), 0.0), LocalEstimate(np.zeros(2), bad)]
    with pytest.raises(NonFiniteWeight) as err:
        combine_determinantal(batch)
    assert isinstance(err.value, NumericalError)  # the CLI's exit code 2
    # uniform merging never looks at the log-weights
    values = np.stack([e.value for e in batch])
    uniform_logs = Scheme.UNIFORM.log_weights(np.array([e.log_weight for e in batch]))
    assert np.array_equal(weighted_means(values, uniform_logs, [2])[0], np.full(2, 0.5))


def test_weighted_mean_that_fits_in_a_float_reads_finite():
    # the weighted sum 1.6e308 overflows, the mean 0.8e308 does not
    values = np.array([[1.0e308, -1.0], [0.6e308, 1.0]])
    mean = weighted_means(values, np.zeros(2), [1, 2])
    assert np.array_equal(mean[0], values[0])
    assert mean[1, 0] == pytest.approx(0.8e308, rel=1e-15) and mean[1, 1] == 0.0
    # a mean of finite values below the overflow keeps its plain bytes
    small = values * 1e-10
    assert weighted_means(small, np.zeros(2), [2])[0].tobytes() == \
        (small.sum(axis=0) / 2.0).tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteResult):
            weighted_means(np.array([[1.0], [bad]]), np.zeros(2), [2])


def test_reduction_rejects_bad_shapes_and_counts():
    values = np.zeros((3, 2))
    with pytest.raises(DimensionMismatch):
        weighted_means(values, np.zeros(2), [2])
    with pytest.raises(DimensionMismatch):
        weighted_means(values, np.zeros((3, 1)), [2])
    for count in (0, 4):
        with pytest.raises(ValueError):
            weighted_means(values, np.zeros(3), [count])


def test_shapes_and_types_preserved():
    mats = [np.eye(2), 2.0 * np.eye(2)]
    out = combine_determinantal([LocalEstimate(m, 0.0) for m in mats])
    assert isinstance(out, np.ndarray) and out.shape == (2, 2)
    scal = combine_determinantal([LocalEstimate(1.5, 0.0)])
    assert isinstance(scal, float)
    assert weighted_means(np.zeros((4, 2, 3)), np.zeros(4), [1, 4]).shape == (2, 2, 3)


@st.composite
def batches(draw, log_range=50.0):
    """(values (m, d), log_weights (m,), prefix counts) for a random batch."""
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    finite = st.floats(-10.0, 10.0, allow_nan=False)
    values = np.array(draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                                    min_size=m, max_size=m)))
    logs = np.array(draw(st.lists(st.floats(-log_range, log_range), min_size=m, max_size=m)))
    counts = sorted(draw(st.sets(st.integers(1, m), min_size=1)))
    return values, logs, counts


def _tol(values):
    return 1e-12 * max(1.0, float(np.abs(values).max()))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_prefix_means_match_independent_average(batch):
    values, logs, counts = batch
    means = weighted_means(values, logs, counts)
    assert means.shape == (len(counts), values.shape[1])
    for mean, c in zip(means, counts):
        weights = np.exp(logs[:c] - logs[:c].max())
        expected = np.average(values[:c], axis=0, weights=weights)
        assert np.abs(mean - expected).max() <= _tol(values)


@settings(max_examples=200, deadline=None)
@given(batches(), st.floats(-4e4, 4e4))
def test_constant_log_weight_shift_changes_nothing(batch, shift):
    values, logs, counts = batch
    base = weighted_means(values, logs, counts)
    moved = weighted_means(values, logs + shift, counts)
    # adding 4e4 rounds each log-weight by up to ~1e-11 before the shift
    # cancels, which moves each weight ratio by as much
    assert np.abs(moved - base).max() <= 1e-9 * max(1.0, float(np.abs(values).max()))


@settings(max_examples=200, deadline=None)
@given(batches(), st.data())
def test_heavy_weight_after_prefix_leaves_it_unchanged(batch, data):
    values, logs, _ = batch
    m, d = values.shape
    c = data.draw(st.integers(1, m))
    light = logs - 4e4
    heavy_value = np.full(d, 7.0)
    ext_values = np.insert(values, c, heavy_value, axis=0)
    ext_logs = np.insert(light, c, 4e4)  # 8e4 above the light weights
    before = weighted_means(values, light, [c])[0]
    prefix, full = weighted_means(ext_values, ext_logs, [c, m + 1])
    assert np.all(np.isfinite(prefix))
    assert np.array_equal(prefix, before)
    assert np.abs(full - heavy_value).max() <= 1e-12
