"""Distributed Newton steps: merging schemes, sweeps, trajectories."""

import statistics

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from detavg import linalg, sketch
from detavg.dataio import synth_regression
from detavg.errors import NotPositiveDefinite
from detavg.newton import (
    MachineConfig,
    Scheme,
    _local_steps,
    coherence,
    error_sweep,
    exact_minimizer,
    local_newton_estimate,
    merged_step,
    run_distributed_newton,
)
from detavg.objective import Dataset, LossKind, Objective
from detavg.oracle import expect_uniform_newton_bias
from detavg.sketch import SeedSpec, SketchMask, draw_mask, local_hessian


def make_objective(seed, n, d, lam, loss=LossKind.SQUARE):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if loss is LossKind.LOGISTIC:
        y = (rng.standard_normal(n) > 0).astype(float)
    else:
        y = rng.standard_normal(n)
    return Objective(Dataset(X=X, y=y), loss, lam=lam)


def medians(rows, scheme, m_list, field="err_hnorm"):
    out = []
    for m in m_list:
        vals = [getattr(r, field) for r in rows if r.scheme == scheme and r.m == m]
        out.append(statistics.median(vals))
    return out


def test_empty_mask_estimate_is_ridge_solve():
    obj = make_objective(1, n=10, d=3, lam=0.5)
    w = np.array([0.2, -1.0, 0.7])
    empty = SketchMask(include=np.zeros(10, dtype=bool), k=2, n=10)
    est = local_newton_estimate(obj, w, empty)
    assert np.allclose(est.value, obj.gradient(w) / 0.5, atol=1e-12)
    assert est.log_weight == pytest.approx(3 * np.log(0.5), rel=1e-12)


def test_full_mask_gives_zero_error():
    obj = make_objective(2, n=25, d=4, lam=0.3)
    w = np.full(4, 0.1)
    for scheme in Scheme:
        cfg = MachineConfig(m=3, k=25, scheme=scheme)
        report = merged_step(obj, w, cfg, seed=0)
        assert report.err_euclidean <= 1e-12
        assert report.err_hnorm <= 1e-12
        assert report.log_weights.shape == (3,)


def test_schemes_coincide_at_single_machine():
    obj = make_objective(3, n=40, d=3, lam=0.2)
    w = np.zeros(3)
    uni = merged_step(obj, w, MachineConfig(1, 8, Scheme.UNIFORM), seed=5)
    det = merged_step(obj, w, MachineConfig(1, 8, Scheme.DETERMINANTAL), seed=5)
    assert np.array_equal(uni.step, det.step)


def test_merged_step_reproducible_and_trial_sensitive():
    obj = make_objective(4, n=30, d=3, lam=0.2)
    cfg = MachineConfig(4, 6, Scheme.DETERMINANTAL)
    w = np.zeros(3)
    a = merged_step(obj, w, cfg, seed=9, trial=0)
    b = merged_step(obj, w, cfg, seed=9, trial=0)
    assert np.array_equal(a.step, b.step)
    c = merged_step(obj, w, cfg, seed=9, trial=1)
    assert not np.array_equal(a.step, c.step)


def test_determinantal_error_keeps_shrinking():
    # tiny instance, m = 2^6 vs 2^14: the weighted merge must shrink at
    # least fourfold while uniform sits on its bias plateau
    obj = make_objective(211, n=12, d=2, lam=0.1)
    w = np.zeros(2)
    rows = error_sweep(
        obj, w, 3, [64, 16384], trials=3,
        scheme=[Scheme.DETERMINANTAL, Scheme.UNIFORM], seed=3,
    )
    det = medians(rows, "determinantal", [64, 16384])
    assert det[1] <= det[0] / 4

    bias = expect_uniform_newton_bias(obj, w, 3)
    plateau = linalg.mahalanobis_norm(bias, obj.hessian(w))
    uni = medians(rows, "uniform", [64, 16384])
    assert uni[1] == pytest.approx(plateau, rel=0.1)
    assert det[1] <= plateau / 4


def test_error_sweep_rows_are_complete_and_sorted():
    obj = make_objective(5, n=30, d=3, lam=0.2)
    m_list = [2, 4, 8]
    rows = error_sweep(
        obj, np.zeros(3), 5, m_list, trials=4,
        scheme=[Scheme.DETERMINANTAL, Scheme.UNIFORM], seed=1,
    )
    assert len(rows) == 2 * len(m_list) * 4
    keys = [(r.scheme, r.m, r.trial) for r in rows]
    assert keys == sorted(keys)
    assert all(r.k == 5 for r in rows)
    assert all(np.isfinite(r.err_euclidean) and np.isfinite(r.err_hnorm) for r in rows)


def test_error_sweep_rows_equal_single_fleet_steps():
    # a sweep row is the merged step of the same fleet, bit for bit
    obj = make_objective(12, n=400, d=5, lam=0.05)
    w = np.full(5, 0.1)
    m_list = [1, 3, 8, 32, 128]
    schemes = [Scheme.DETERMINANTAL, Scheme.UNIFORM]
    rows = error_sweep(obj, w, 40, m_list, trials=2, scheme=schemes, seed=13)
    assert len(rows) == 2 * len(m_list) * 2
    for row in rows:
        cfg = MachineConfig(m=row.m, k=40, scheme=Scheme(row.scheme))
        report = merged_step(obj, w, cfg, seed=13, trial=row.trial)
        assert (row.err_euclidean, row.err_hnorm) == (report.err_euclidean, report.err_hnorm)


def test_error_sweep_validation():
    obj = make_objective(7, n=20, d=2, lam=0.2)
    with pytest.raises(ValueError):
        error_sweep(obj, np.zeros(2), 4, [8, 4], 2, Scheme.UNIFORM, seed=0)
    with pytest.raises(ValueError):
        error_sweep(obj, np.zeros(2), 4, [4, 4], 2, Scheme.UNIFORM, seed=0)
    with pytest.raises(ValueError):
        error_sweep(obj, np.zeros(2), 4, [4], 0, Scheme.UNIFORM, seed=0)
    with pytest.raises(ValueError):
        error_sweep(obj, np.zeros(2), 4, [4], 2, [], seed=0)


def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(m=0, k=5)
    with pytest.raises(ValueError):
        MachineConfig(m=2, k=0)


def test_exact_newton_solves_quadratic_in_one_step():
    obj = make_objective(8, n=50, d=4, lam=0.3)
    cfg = MachineConfig(m=1, k=50, scheme=Scheme.DETERMINANTAL)
    traj = run_distributed_newton(obj, np.zeros(4), 2, cfg, seed=0)
    assert traj.dist_to_opt[0] > 1e-3
    assert traj.dist_to_opt[1] <= 1e-8
    assert traj.iterates.shape == (3, 4)
    assert len(traj.losses) == 3
    assert traj.losses[1] <= traj.losses[0]


def test_exact_minimizer_reaches_tiny_gradient():
    obj = make_objective(9, n=60, d=4, lam=1e-2, loss=LossKind.LOGISTIC)
    w_star = exact_minimizer(obj)
    assert np.linalg.norm(obj.gradient(w_star)) <= 1e-12


def test_distributed_trajectory_approaches_optimum():
    obj = make_objective(10, n=200, d=4, lam=1e-2, loss=LossKind.LOGISTIC)
    cfg = MachineConfig(m=64, k=50, scheme=Scheme.DETERMINANTAL)
    traj = run_distributed_newton(obj, np.zeros(4), 6, cfg, seed=2)
    assert traj.dist_to_opt[-1] <= 1e-2 * traj.dist_to_opt[0]
    assert traj.scheme == "determinantal"


def test_coherence_hand_value_and_zero_case():
    # single row: mu = l'' x^2 / (l'' x^2 + lam), d = 1
    obj = Objective(Dataset(X=[[2.0]], y=[0.0]), LossKind.SQUARE, lam=0.5)
    mu = coherence(obj, np.zeros(1))
    assert mu == pytest.approx(8.0 / 8.5, rel=1e-12)
    zero = Objective(Dataset(X=np.zeros((3, 2)), y=np.zeros(3)), LossKind.SQUARE, lam=1.0)
    assert coherence(zero, np.zeros(2)) == 0.0


def test_coherence_scales_with_leverage():
    obj = make_objective(11, n=100, d=5, lam=0.1)
    base = coherence(obj, np.zeros(5))
    assert base > 0
    # appending a high-leverage row increases the maximum
    X2 = np.vstack([obj.data.X, 10.0 * np.ones(5)])
    y2 = np.append(obj.data.y, 0.0)
    spiked = Objective(Dataset(X=X2, y=y2), LossKind.SQUARE, lam=0.1)
    assert coherence(spiked, np.zeros(5)) > base


D_WIDE = 65
BLOCK_WIDE = sketch.block_size(D_WIDE)


@settings(max_examples=6, deadline=None)
@given(
    m=st.one_of(st.just(1), st.integers(BLOCK_WIDE + 1, 2 * BLOCK_WIDE + 1)),
    seed=st.integers(0, 2**16),
    trial=st.integers(0, 3),
)
def test_local_steps_equal_per_machine_factorizations(m, seed, trial):
    # stacks of one and stacks spanning several blocks at d=65 give, bit for
    # bit, the per-machine Cholesky and cho_solve of each local Hessian
    assert BLOCK_WIDE > 1
    obj = Objective(synth_regression(300, D_WIDE, 1.0, seed=seed), LossKind.SQUARE, lam=1e-2)
    w = np.zeros(D_WIDE)
    grad = obj.gradient(w)
    steps, log_dets = _local_steps(obj, w, grad, 100, m, seed, trial)
    assert steps.shape == (m, D_WIDE) and log_dets.shape == (m,)
    for t in range(m):
        mask = draw_mask(obj.data.n, 100, SeedSpec(seed, trial, t))
        L = np.linalg.cholesky(local_hessian(obj, w, mask))
        assert np.array_equal(steps[t], scipy.linalg.cho_solve((L, True), grad))
        assert log_dets[t] == float(2.0 * np.sum(np.log(np.diag(L))))
        est = local_newton_estimate(obj, w, mask, grad)
        assert np.array_equal(est.value, steps[t]) and est.log_weight == log_dets[t]


def test_local_factorization_failure_names_the_machine():
    # about two rows per machine in d=3 with a vanishing ridge: some local
    # Hessians are singular to working precision
    seed = 5
    obj = Objective(synth_regression(50, 3, 1.0, seed=seed), LossKind.SQUARE, lam=1e-300)
    w = np.zeros(3)
    with pytest.raises(NotPositiveDefinite) as info:
        merged_step(obj, w, MachineConfig(m=8, k=2), seed)
    machine = info.value.index
    assert machine > 0
    assert f"(seed, trial, machine) = ({seed}, 0, {machine})" in str(info.value)
    # the triple replays that machine alone; the machines before it succeed
    for t in range(machine):
        local_newton_estimate(obj, w, draw_mask(50, 2, SeedSpec(seed, 0, t)))
    with pytest.raises(NotPositiveDefinite):
        local_newton_estimate(obj, w, draw_mask(50, 2, SeedSpec(seed, 0, machine)))
