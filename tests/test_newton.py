"""Distributed Newton steps: merging schemes, sweeps, trajectories."""

import statistics

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detavg import cli, linalg, newton, sketch
from detavg.dataio import synth_regression
from detavg.errors import NonFiniteResult, NotPositiveDefinite
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


def test_empty_mask_step_that_overflows_is_refused():
    # the bare ridge 1e-320 I solves to grad / 1e-320, which overflows; a
    # fleet refuses that machine, and so must its single-machine replay
    obj = make_objective(1, n=20, d=2, lam=1e-320)
    empty = SketchMask(include=np.zeros(20, dtype=bool), k=1, n=20)
    with pytest.raises(NonFiniteResult, match="local step"):
        local_newton_estimate(obj, np.zeros(2), empty)


def test_full_mask_gives_zero_error():
    obj = make_objective(2, n=25, d=4, lam=0.3)
    w = np.full(4, 0.1)
    for scheme in Scheme:
        cfg = MachineConfig(m=3, k=25, scheme=scheme)
        report = merged_step(obj, w, cfg, seed=0)
        assert report.err_euclidean <= 1e-12
        assert report.err_hnorm <= 1e-12
        assert report.step.shape == (4,)


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


def test_error_sweep_checks_the_hessian_once(monkeypatch):
    # solve_psd checks the full-data Hessian when it solves for the exact
    # step, and the rows' H-norms take it unchecked: 16 rows, at most two
    # checks (17 with one per row), and each H-norm the public norm's bytes
    calls = []
    check = linalg.require_symmetric

    def counted(M):
        calls.append(np.shape(M))
        return check(M)

    monkeypatch.setattr(linalg, "require_symmetric", counted)
    obj = make_objective(5, n=30, d=3, lam=0.2)
    w = np.full(3, 0.1)
    schemes = [Scheme.DETERMINANTAL, Scheme.UNIFORM]
    rows = error_sweep(obj, w, 5, [2, 4, 8, 16], trials=2, scheme=schemes, seed=1)
    assert len(rows) == 16 and 1 <= len(calls) <= 2, calls
    monkeypatch.undo()
    H = obj.hessian(w)
    exact = linalg.solve_psd(H, obj.gradient(w))
    for row in rows:
        cfg = MachineConfig(m=row.m, k=5, scheme=Scheme(row.scheme))
        step = merged_step(obj, w, cfg, seed=1, trial=row.trial).step
        assert row.err_hnorm == linalg.mahalanobis_norm(step - exact, H)


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


@pytest.mark.parametrize("scheme", list(Scheme))
def test_trajectory_steps_are_merged_steps(monkeypatch, scheme):
    # iterate i+1 is iterate i minus merged_step's step at trial i, bit for
    # bit, and the trajectory computes none of the step errors merged_step
    # reports against the exact step
    obj = make_objective(11, n=300, d=5, lam=0.05, loss=LossKind.LOGISTIC)
    cfg = MachineConfig(m=16, k=40, scheme=scheme)
    traj = run_distributed_newton(obj, np.zeros(5), 2, cfg, seed=3)
    for i in range(2):
        step = merged_step(obj, traj.iterates[i], cfg, seed=3, trial=i).step
        assert traj.iterates[i + 1].tobytes() == (traj.iterates[i] - step).tobytes()

    def refuse(*args):
        raise AssertionError("the trajectory computed step errors")

    monkeypatch.setattr(newton, "_step_errors", refuse)
    again = run_distributed_newton(obj, np.zeros(5), 2, cfg, seed=3)
    assert again.iterates.tobytes() == traj.iterates.tobytes()


def test_exact_minimizer_reaches_tiny_gradient():
    obj = make_objective(9, n=60, d=4, lam=1e-2, loss=LossKind.LOGISTIC)
    w_star = exact_minimizer(obj)
    assert np.linalg.norm(obj.gradient(w_star)) <= 1e-12


def reference_exact_minimizer(obj):
    """exact_minimizer as it was before it kept each iterate's gradient:
    the step is Objective.exact_newton_step, which takes the gradient again."""
    w = np.zeros(obj.d)
    norm = linalg.norm(obj.gradient(w))
    target = newton._NEWTON_TOL * max(1.0, norm)
    for _ in range(newton._NEWTON_ITERS):
        if norm <= target < np.inf:
            return w
        w = w - obj.exact_newton_step(w)
        norm = linalg.norm(obj.gradient(w))
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("seed", [9, 10, 11])
def test_exact_minimizer_takes_each_gradient_once(monkeypatch, loss, seed):
    obj = make_objective(seed, n=60, d=4, lam=1e-2, loss=loss)
    want = reference_exact_minimizer(obj)
    calls = {"gradient": 0, "hessian": 0}
    for name in calls:
        method = getattr(Objective, name)

        def counted(self, w, method=method, name=name):
            calls[name] += 1
            return method(self, w)

        monkeypatch.setattr(Objective, name, counted)
    w_star = exact_minimizer(obj)
    assert w_star.tobytes() == want.tobytes()
    # one Hessian per iteration, one gradient per iterate including w = 0
    assert calls["hessian"] >= 1
    assert calls["gradient"] == calls["hessian"] + 1


def test_distributed_trajectory_approaches_optimum():
    obj = make_objective(10, n=200, d=4, lam=1e-2, loss=LossKind.LOGISTIC)
    cfg = MachineConfig(m=64, k=50, scheme=Scheme.DETERMINANTAL)
    traj = run_distributed_newton(obj, np.zeros(4), 6, cfg, seed=2)
    assert traj.dist_to_opt[-1] <= 1e-2 * traj.dist_to_opt[0]
    assert traj.scheme == "determinantal"


def test_distances_are_the_norms_of_each_iterate():
    # the converge_det.csv run of scripts/pinned_outputs.py, where a sum of
    # squares per row read another last bit than the vector norm in 3 of 11
    # distances
    args = cli.build_parser().parse_args([
        "newton-converge", "--synth", "2000,10,1.0", "--loss", "logistic", "--lambda", "auto",
        "--k", "200", "--m", "256", "--iters", "10", "--scheme", "determinantal", "--seed", "0",
        "--out", "unused.csv"])
    obj, _ = cli.make_objective(args, cli.load_data(args, 0)[0])
    cfg = MachineConfig(m=256, k=200, scheme=Scheme.DETERMINANTAL)
    traj = run_distributed_newton(obj, np.zeros(obj.d), 10, cfg, seed=0)
    assert len(traj.dist_to_opt) == 11
    for wi, dist in zip(traj.iterates, traj.dist_to_opt):
        assert dist.tobytes() == np.float64(linalg.norm(wi - traj.w_star)).tobytes()


def test_coherence_hand_value_and_zero_case():
    # single row: mu = l'' x^2 / (l'' x^2 + lam), d = 1
    obj = Objective(Dataset(X=[[2.0]], y=[0.0]), LossKind.SQUARE, lam=0.5)
    mu = coherence(obj, np.zeros(1))
    assert mu == pytest.approx(8.0 / 8.5, rel=1e-12)
    zero = Objective(Dataset(X=np.zeros((3, 2)), y=np.zeros(3)), LossKind.SQUARE, lam=1.0)
    assert coherence(zero, np.zeros(2)) == 0.0


@settings(max_examples=30, deadline=None)
@given(loss=st.sampled_from(list(LossKind)), d=st.sampled_from([1, 3, 10, 65]),
       seed=st.integers(0, 2**32 - 1))
def test_coherence_equals_the_solved_leverages(loss, d, seed):
    # inverse_forms over the weighted rows, against the first formula:
    # l''_i x_i^T H^-1 x_i from a full solve for every row
    obj = make_objective(seed, n=120, d=d, lam=0.05, loss=loss)
    w = np.random.default_rng(seed).standard_normal(d) / np.sqrt(d)
    X = obj.data.X
    quad = np.einsum("ij,ji->i", X, linalg.solve_psd(obj.hessian(w), X.T))
    want = np.max(obj.loss.d2value(X @ w) * quad) / d
    assert coherence(obj, w) == pytest.approx(want, rel=1e-10)


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
BLOCK_WIDE = sketch.block_size(D_WIDE * D_WIDE)
# a local step against scipy's cho_solve, which sums in another order: both
# agree to rounding, far inside these bounds at lam = 1e-2
STEP_RTOL = 1e-10  # ||step - cho_solve|| / ||cho_solve||
RESIDUAL_RTOL = 1e-13  # ||H step - grad|| / (||H|| ||step||)


# loss, d and k of a fleet, each at a nonzero w: the square loss at d=65; the
# logistic loss there; k=1, where about a third of the 300-row masks are empty;
# and d=10, whose stacks hold 2621 machines
FLEET_CASES = {
    "square": (LossKind.SQUARE, D_WIDE, 100),
    "logistic": (LossKind.LOGISTIC, D_WIDE, 100),
    "empty": (LossKind.SQUARE, D_WIDE, 1),
    "d10": (LossKind.SQUARE, 10, 100),
}


@settings(max_examples=8, deadline=None)
@given(
    case=st.sampled_from(sorted(FLEET_CASES)),
    stacks=st.integers(0, 2),
    extra=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    trial=st.integers(0, 3),
)
@example(case="logistic", stacks=1, extra=2, seed=0, trial=0)
@example(case="empty", stacks=2, extra=3, seed=1, trial=2)
@example(case="d10", stacks=1, extra=1, seed=2, trial=1)
def test_local_steps_equal_per_machine_factorizations(case, stacks, extra, seed, trial):
    # a stack of one and fleets spanning up to three stacks give, bit for bit,
    # each machine's local_newton_estimate, which solves its local Hessian as
    # scipy's cho_solve does, to rounding.  An empty mask in a later stack
    # must overwrite its slot's old product with zeros.
    assert BLOCK_WIDE > 1
    loss, d, k = FLEET_CASES[case]
    block = sketch.block_size(d * d)
    m = stacks * block + extra
    data = synth_regression(300, d, 1.0, seed=seed)
    if loss is LossKind.LOGISTIC:
        data = Dataset(X=data.X, y=(data.y > 0).astype(float))
    obj = Objective(data, loss, lam=1e-2)
    w = 0.1 * np.random.default_rng(seed).standard_normal(d)
    grad = obj.gradient(w)
    steps, log_dets = _local_steps(obj, w, grad, k, m, seed, trial)
    assert steps.shape == (m, d) and log_dets.shape == (m,)
    empty = 0
    for t in range(m):
        mask = draw_mask(obj.data.n, k, SeedSpec(seed, trial, t))
        empty += mask.count == 0 and t >= block
        H = local_hessian(obj, w, mask)
        L = np.linalg.cholesky(H)
        est = local_newton_estimate(obj, w, mask, grad)
        assert np.array_equal(est.value, steps[t]) and est.log_weight == log_dets[t]
        assert log_dets[t] == float(2.0 * np.sum(np.log(np.diag(L))))
        want = scipy.linalg.cho_solve((L, True), grad)
        assert np.linalg.norm(steps[t] - want) <= STEP_RTOL * np.linalg.norm(want)
        residual = np.linalg.norm(H @ steps[t] - grad)
        assert residual <= RESIDUAL_RTOL * np.linalg.norm(H, 2) * np.linalg.norm(steps[t])
    if case == "empty" and stacks == 2:
        assert empty > 0


def test_local_factorization_failure_names_the_machine():
    # about two rows per machine in d=3 with a vanishing ridge: some local
    # Hessians are singular to working precision.  The failing machine is
    # found from the masks themselves, so the test holds whatever the
    # stream draws; test_sketch pins a failure past the first machine
    seed, n, k, m = 5, 50, 2, 8
    obj = Objective(synth_regression(n, 3, 1.0, seed=seed), LossKind.SQUARE, lam=1e-300)
    w = np.zeros(3)

    def fails(machine):
        try:
            local_newton_estimate(obj, w, draw_mask(n, k, SeedSpec(seed, 0, machine)))
        except NotPositiveDefinite:
            return True
        return False

    # the triple replays each machine alone; the first that fails is named
    machine = next((t for t in range(m) if fails(t)), None)
    assert machine is not None
    with pytest.raises(NotPositiveDefinite) as info:
        merged_step(obj, w, MachineConfig(m=m, k=k), seed)
    assert info.value.index == machine
    assert f"(seed, trial, machine) = ({seed}, 0, {machine})" in str(info.value)


def z_scores(samples, targets):
    """z of the mean of each column of ``samples`` against its target."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return (samples.mean(axis=0) - np.asarray(targets)) / se


@pytest.mark.parametrize("k, separation", [(20, 8.0), (50, 40.0), (200, 40.0)])
def test_fleet_meets_the_determinantal_identity_at_scale(k, separation):
    # E[H_t] = H for the Bernoulli local Hessians, so E[det(H_t)/det(H) p_t]
    # = p and E[det(H_t)/det(H)] = 1, with p = H^{-1} g the exact step,
    # solved here by factor_solve on the full-data Hessian; a wrong scale in
    # the fleet's Gram tail moves these by many standard errors.  Bound,
    # separations and stream were fixed before the first run: a miss is a
    # finding about the fleet, not a reason to pick another seed.  The
    # uniform mean's bias shrinks as k grows and its spread as k nears d
    seed, bound = 0, 4.0
    data = synth_regression(2000, 10, 1.0, seed=seed)
    obj = Objective(data, LossKind.SQUARE, lam=1.0 / data.n)
    w = np.zeros(obj.d)
    grad = obj.gradient(w)
    exact, log_det = linalg.factor_solve(obj.hessian(w), grad)
    steps, log_dets = _local_steps(obj, w, grad, k, 20_000, seed, 0)
    ratio = np.exp(log_dets - log_det)
    z = z_scores(np.column_stack([ratio[:, None] * steps, ratio]), [*exact, 1.0])
    assert np.abs(z).max() <= bound, z
    # the uniform mean is biased: the same fleet tells it from p
    assert np.abs(z_scores(steps, exact)).max() > separation


@pytest.mark.parametrize("loss", [LossKind.SQUARE, LossKind.LOGISTIC])
def test_local_steps_are_rotation_equivariant(loss):
    # X -> XQ and w -> Q^T w for an orthogonal Q, with the same masks: every
    # local Hessian becomes Q^T H_t Q, so its log-determinant stays and its
    # step becomes Q^T p_t
    n, d, k, m = 500, 10, 40, 256
    obj = make_objective(21, n, d, lam=1e-2, loss=loss)
    rng = np.random.default_rng(22)
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = 0.3 * rng.standard_normal(d)
    turned = Objective(Dataset(X=obj.data.X @ Q, y=obj.data.y), loss, lam=obj.lam)
    steps, log_dets = _local_steps(obj, w, obj.gradient(w), k, m, 3, 1)
    turned_steps, turned_log_dets = _local_steps(turned, Q.T @ w, turned.gradient(Q.T @ w),
                                                 k, m, 3, 1)
    assert np.abs(turned_log_dets - log_dets).max() <= 1e-12
    scale = np.linalg.norm(steps, axis=1)
    assert (np.linalg.norm(turned_steps - steps @ Q, axis=1) <= 1e-12 * scale).all()
