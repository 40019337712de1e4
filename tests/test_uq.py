"""Precision-statistic estimation: local values, merging, sweeps."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detavg import sketch
from detavg.averaging import combine_determinantal
from detavg.errors import NotPositiveDefinite, SingularCovariance
from detavg.objective import Dataset
from detavg.sketch import SeedSpec, SketchMask, draw_mask, local_covariance
from detavg.uq import (
    Statistic,
    UqConfig,
    _fleet_estimate,
    _local_spectra,
    estimate_precision_statistic,
    exact_statistic,
    local_uq_estimate,
    uq_sweep,
)


def gaussian_data(seed, n, d):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.standard_normal((n, d)), y=np.zeros(n))


def test_scalar_hand_computation():
    # d = 1, rows {1, 2}: a mask catching only the first row gives
    # Sigma_hat = 1/k = 1, so the ridged inverse trace is 1 / (1 + r)
    data = Dataset(X=[[1.0], [2.0]], y=[0.0, 0.0])
    mask = SketchMask(include=np.array([True, False]), k=1, n=2)
    eta, m = 0.5, 4
    r = eta / np.sqrt(m)
    est = local_uq_estimate(data, mask, eta, m, Statistic.TRACE)
    assert est.value == pytest.approx(1.0 / (1.0 + r), rel=1e-14)
    assert est.log_weight == pytest.approx(np.log(1.0 + r), rel=1e-14)
    diag = local_uq_estimate(data, mask, eta, m, Statistic.DIAGONAL)
    assert np.allclose(diag.value, [1.0 / (1.0 + r)])


def test_empty_subsample_reduces_to_ridge():
    data = gaussian_data(1, n=10, d=3)
    empty = SketchMask(include=np.zeros(10, dtype=bool), k=2, n=10)
    eta, m = 2.0, 16
    est = local_uq_estimate(data, empty, eta, m, Statistic.TRACE)
    assert est.value == pytest.approx(3 * np.sqrt(m) / eta, rel=1e-12)


def test_full_subsample_is_exact_ridged_statistic():
    data = gaussian_data(2, n=50, d=4)
    cfg = UqConfig(m=9, k=50, eta=1.0, statistic=Statistic.TRACE)
    est, exact, abs_err = estimate_precision_statistic(data, cfg, seed=0)
    sigma = data.X.T @ data.X / 50
    ridged = np.linalg.inv(sigma + (1.0 / 3.0) * np.eye(4))
    assert est == pytest.approx(np.trace(ridged), rel=1e-12)
    assert exact == pytest.approx(np.trace(np.linalg.inv(sigma)), rel=1e-12)
    assert abs_err == pytest.approx(abs(est - exact), rel=1e-12)


def test_trace_equals_sum_of_diagonal():
    # same seed, same masks: trace estimate and diagonal estimate must be
    # two readouts of the same local inverses
    data = gaussian_data(3, n=80, d=5)
    tr_cfg = UqConfig(m=12, k=16, eta=1.0, statistic=Statistic.TRACE)
    di_cfg = UqConfig(m=12, k=16, eta=1.0, statistic=Statistic.DIAGONAL)
    tr_est, tr_exact, _ = estimate_precision_statistic(data, tr_cfg, seed=4)
    di_est, di_exact, _ = estimate_precision_statistic(data, di_cfg, seed=4)
    assert di_est.shape == (5,)
    assert tr_est == pytest.approx(di_est.sum(), rel=1e-12)
    assert tr_exact == pytest.approx(di_exact.sum(), rel=1e-12)


def test_rank_deficient_subsamples_are_fine():
    # k < d: every local covariance is singular, the ridge keeps the
    # inversion defined
    data = gaussian_data(5, n=30, d=5)
    cfg = UqConfig(m=8, k=2, eta=1.0, statistic=Statistic.TRACE)
    est, exact, abs_err = estimate_precision_statistic(data, cfg, seed=1)
    assert np.isfinite(est) and np.isfinite(abs_err)


def test_singular_exact_covariance_is_reported():
    data = gaussian_data(6, n=2, d=3)  # n < d
    with pytest.raises(SingularCovariance):
        exact_statistic(data, Statistic.TRACE)
    with pytest.raises(SingularCovariance):
        estimate_precision_statistic(data, UqConfig(m=2, k=2), seed=0)


def test_error_decreases_with_machines():
    data = gaussian_data(7, n=400, d=5)
    rows = uq_sweep(data, 40, 1.0, [16, 256], trials=5, statistic=Statistic.TRACE, seed=0)
    med16 = statistics.median([r.abs_err for r in rows if r.m == 16])
    med256 = statistics.median([r.abs_err for r in rows if r.m == 256])
    assert med256 < med16 / 2


def test_sweep_rows_complete_and_deterministic():
    data = gaussian_data(8, n=100, d=3)
    args = (data, 10, 1.0, [4, 16], 6, Statistic.TRACE, 11)
    rows = uq_sweep(*args)
    assert len(rows) == 2 * 6
    assert [(r.m, r.trial) for r in rows] == sorted((r.m, r.trial) for r in rows)
    assert all(r.statistic == "trace" and r.k == 10 and r.eta == 1.0 for r in rows)
    exact = rows[0].exact
    assert all(r.exact == exact for r in rows)
    assert uq_sweep(*args) == rows


@pytest.mark.parametrize("statistic", list(Statistic))
def test_sweep_rows_equal_single_fleet_estimates(statistic):
    # a sweep row is the estimate of the same fleet, bit for bit
    data = gaussian_data(12, n=400, d=5)
    m_list = [1, 3, 8, 32, 128]
    rows = uq_sweep(data, 40, 1.0, m_list, 2, statistic, seed=13)
    assert len(rows) == len(m_list) * 2
    for row in rows:
        cfg = UqConfig(m=row.m, k=40, eta=1.0, statistic=statistic)
        est, exact, abs_err = estimate_precision_statistic(data, cfg, seed=13, trial=row.trial)
        want = (float(np.sum(est)), float(np.sum(exact)), abs_err)
        assert (row.estimate, row.exact, row.abs_err) == want


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    trial=st.integers(0, 3),
    n=st.integers(4, 40),
    d=st.integers(1, 6),
    k=st.integers(1, 4),
    m=st.integers(1, 40),
    eta=st.floats(0.1, 10.0),
    statistic=st.sampled_from(list(Statistic)),
)
def test_eigen_fleet_estimate_matches_cholesky_route(seed, trial, n, d, k, m, eta, statistic):
    # small k/n leaves many masks empty, so bare-ridge machines are covered
    data = gaussian_data(seed, n, d)
    got = _fleet_estimate(_local_spectra(data, k, m, seed, trial, statistic), m, eta, statistic)
    want = combine_determinantal([
        local_uq_estimate(data, draw_mask(n, k, SeedSpec(seed, trial, t)), eta, m, statistic)
        for t in range(m)
    ])
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want))


D_WIDE = 65
BLOCK_WIDE = sketch.block_size(D_WIDE)


@settings(max_examples=6, deadline=None)
@given(
    m=st.one_of(st.just(1), st.integers(BLOCK_WIDE + 1, 2 * BLOCK_WIDE + 1)),
    seed=st.integers(0, 2**16),
    trial=st.integers(0, 3),
    statistic=st.sampled_from(list(Statistic)),
)
def test_local_spectra_equal_per_machine_decompositions(m, seed, trial, statistic):
    # stacks of one and stacks spanning several blocks at d=65 give, bit for
    # bit, the per-machine decomposition of each local covariance
    assert BLOCK_WIDE > 1
    data = gaussian_data(seed, n=300, d=D_WIDE)
    spectra = _local_spectra(data, 100, m, seed, trial, statistic)
    assert spectra.eigenvalues.shape == (m, D_WIDE)
    for t in range(m):
        cov = local_covariance(data, draw_mask(data.n, 100, SeedSpec(seed, trial, t)))
        if statistic is Statistic.TRACE:
            assert spectra.sq_eigenvectors is None
            assert np.array_equal(spectra.eigenvalues[t], np.linalg.eigvalsh(cov))
        else:
            lam, V = np.linalg.eigh(cov)
            assert np.array_equal(spectra.eigenvalues[t], lam)
            assert np.array_equal(spectra.sq_eigenvectors[t], V * V)


def test_non_positive_ridged_eigenvalue_names_the_machine():
    # about two rows per machine in d=3: a covariance of fewer than three
    # rows is singular, and a vanishing ridge cannot lift a rounding-negative
    # eigenvalue
    data = gaussian_data(14, n=50, d=3)
    cfg = UqConfig(m=8, k=2, eta=1e-300)
    with pytest.raises(NotPositiveDefinite) as info:
        estimate_precision_statistic(data, cfg, seed=5, trial=2)
    machine = info.value.index
    assert f"(seed, trial, machine) = (5, 2, {machine})" in str(info.value)
    spectra = _local_spectra(data, 2, 8, 5, 2, Statistic.TRACE)
    first_bad = [t for t in range(8) if spectra.eigenvalues[t].min() + 1e-300 / np.sqrt(8) <= 0]
    assert machine == first_bad[0]


def test_diagonal_sweep_estimate_column_matches_trace():
    data = gaussian_data(9, n=120, d=4)
    tr = uq_sweep(data, 12, 1.0, [8], 3, Statistic.TRACE, seed=2)
    di = uq_sweep(data, 12, 1.0, [8], 3, Statistic.DIAGONAL, seed=2)
    for a, b in zip(tr, di):
        assert b.estimate == pytest.approx(a.estimate, rel=1e-12)
        assert b.statistic == "diagonal"


def test_config_validation():
    with pytest.raises(ValueError):
        UqConfig(m=0, k=5)
    with pytest.raises(ValueError):
        UqConfig(m=2, k=0)
    with pytest.raises(ValueError):
        UqConfig(m=2, k=2, eta=0.0)
    with pytest.raises(ValueError):
        UqConfig(m=2, k=2, eta=np.inf)
    data = gaussian_data(10, n=20, d=2)
    with pytest.raises(ValueError):
        uq_sweep(data, 5, 1.0, [8, 4], 2, Statistic.TRACE, seed=0)
    with pytest.raises(ValueError):
        uq_sweep(data, 5, 1.0, [4], 0, Statistic.TRACE, seed=0)
