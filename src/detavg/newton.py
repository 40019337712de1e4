"""Distributed Newton steps from subsampled Hessians, merged two ways.

Each of m machines inverts its own Bernoulli-subsampled Hessian against
the exact global gradient.  Uniform averaging of those local steps
converges to a biased step as m grows, because matrix inversion is
nonlinear; weighting each step by the determinant of its subsampled
Hessian removes the bias in expectation, so the determinantal merge keeps
improving at the 1/sqrt(m) rate long after the uniform merge has hit its
plateau.  The sweep helpers here measure exactly that, against the step
an exact Newton method would take.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .averaging import LocalEstimate, weighted_means
from .errors import NoConvergence
from .objective import Objective, hessian_gram, stack_tail
from .sketch import SketchMask, check_sweep, local_fleet, local_hessian

_NEWTON_TOL = 1e-12  # of exact_minimizer, relative to the first gradient norm
_NEWTON_ITERS = 100


class Scheme(enum.Enum):
    """How local steps are merged across machines."""

    UNIFORM = "uniform"
    DETERMINANTAL = "determinantal"

    def log_weights(self, log_dets: np.ndarray) -> np.ndarray:
        """Log-weights of the merge: uniform merging weights every step by 1."""
        return log_dets if self is Scheme.DETERMINANTAL else np.zeros_like(log_dets)


@dataclass(frozen=True)
class MachineConfig:
    """Simulated fleet: m machines, expected local sample size k."""

    m: int
    k: int
    scheme: Scheme = Scheme.DETERMINANTAL

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one machine, got m={self.m}")
        if self.k < 1:
            raise ValueError(f"need a positive sample size, got k={self.k}")


@dataclass(frozen=True)
class StepReport:
    """Merged step at one iterate, with its error against the exact step."""

    step: np.ndarray
    exact: np.ndarray
    err_euclidean: float
    err_hnorm: float
    log_weights: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    m: int
    k: int
    trial: int
    err_euclidean: float
    err_hnorm: float


@dataclass(frozen=True)
class Trajectory:
    """Iterates of a distributed Newton run with reference quantities.

    ``dist_to_opt[i]`` is the Euclidean distance of iterate i from the
    minimizer found by exact Newton iteration, ``losses[i]`` the objective
    value there.
    """

    scheme: str
    iterates: np.ndarray
    dist_to_opt: np.ndarray
    losses: np.ndarray
    w_star: np.ndarray


def local_newton_estimate(
    obj: Objective,
    w: np.ndarray,
    mask: SketchMask,
    grad: np.ndarray | None = None,
) -> LocalEstimate:
    """One machine's step: subsampled-Hessian solve against the exact gradient.

    Returns the solution of ``H_hat p_hat = grad L(w)`` as the value and
    ``log det H_hat`` as the log-weight.  An empty mask degenerates to the
    ridge-only system, giving ``grad / lam`` with log-weight ``d log lam``.
    """
    if grad is None:
        grad = obj.gradient(w)
    step, log_det = linalg.factor_solve(local_hessian(obj, w, mask), grad)
    return LocalEstimate(value=step, log_weight=float(log_det))


def _local_steps(
    obj: Objective, w: np.ndarray, grad: np.ndarray, k: int, m: int, seed: int, trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """Steps (m, d) and log-determinants (m,) of machines 0..m-1 of one fleet.

    One :func:`sketch.local_fleet`: each machine's build writes
    :func:`objective.hessian_gram` over its rows into its slot, and the
    decomposition runs :func:`objective.gram_tail` over the stack, into one
    buffer per fleet (:func:`objective.stack_tail`), before
    :func:`linalg.factor_solve`.  Together they are
    :func:`objective.hessian_into`, so each row is bit-identical to
    :func:`local_newton_estimate` for that machine.
    """
    X = obj.data.X
    tail = stack_tail(k, obj.lam * np.eye(obj.d))

    def build(include: np.ndarray, out: np.ndarray) -> None:
        hessian_gram(out, obj.loss, X.compress(include, axis=0), w)

    def decompose(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return linalg.factor_solve(tail(stack), grad)

    return local_fleet(build, decompose, obj.data.n, obj.d, k, m, seed, trial)


def _step_errors(step: np.ndarray, exact: np.ndarray, H: np.ndarray) -> tuple[float, float]:
    with np.errstate(over="ignore"):
        diff = step - exact
    return linalg.norm(diff), linalg.mahalanobis_norm(diff, H)


def merged_step(
    obj: Objective, w: np.ndarray, cfg: MachineConfig, seed: int, trial: int = 0
) -> StepReport:
    """Draw cfg.m machines, merge their local steps, compare to the exact step.

    Machine t draws its mask from the stream keyed by (seed, trial, t), so
    a report is reproducible from (config, seed, trial) alone.
    """
    w = np.asarray(w, dtype=float)
    grad = obj.gradient(w)
    steps, log_dets = _local_steps(obj, w, grad, cfg.k, cfg.m, seed, trial)
    step = weighted_means(steps, cfg.scheme.log_weights(log_dets), [cfg.m])[0]
    H = obj.hessian(w)
    exact = linalg.solve_psd(H, grad)
    err_euclidean, err_hnorm = _step_errors(step, exact, H)
    return StepReport(
        step=step,
        exact=exact,
        err_euclidean=err_euclidean,
        err_hnorm=err_hnorm,
        log_weights=log_dets,
    )


def error_sweep(
    obj: Objective,
    w: np.ndarray,
    k: int,
    m_list: list[int],
    trials: int,
    scheme: Scheme | list[Scheme],
    seed: int,
) -> list[SweepRow]:
    """Step-error table over a grid of machine counts.

    Parameters
    ----------
    m_list : list of int
        Machine counts, strictly increasing.
    trials : int
        Independent repetitions, run one after another; trial i uses
        streams keyed by (seed, i, *).
    scheme : Scheme or list of Scheme
        One or both merge schemes; both share identical masks per trial.

    Returns
    -------
    rows : list of SweepRow, sorted by (scheme, m, trial).  The row at
    (scheme, m, trial) equals :func:`merged_step` for that fleet.
    """
    schemes = [scheme] if isinstance(scheme, Scheme) else list(scheme)
    if len(schemes) == 0:
        raise ValueError("need at least one scheme")
    check_sweep(m_list, trials)
    w = np.asarray(w, dtype=float)
    grad = obj.gradient(w)
    H = obj.hessian(w)
    exact = linalg.solve_psd(H, grad)

    def run(trial: int) -> dict[Scheme, np.ndarray]:
        # one fleet of max(m_list) machines per trial; the snapshot at each m
        # is its first m machines, shared by both schemes (common random numbers)
        steps, log_dets = _local_steps(obj, w, grad, k, m_list[-1], seed, trial)
        return {s: weighted_means(steps, s.log_weights(log_dets), m_list) for s in schemes}

    per_trial = [run(trial) for trial in range(trials)]
    rows = []
    for scheme_obj in schemes:
        for i, m in enumerate(m_list):
            for trial in range(trials):
                err_e, err_h = _step_errors(per_trial[trial][scheme_obj][i], exact, H)
                rows.append(SweepRow(scheme_obj.value, m, k, trial, err_e, err_h))
    rows.sort(key=lambda r: (r.scheme, r.m, r.trial))
    return rows


def exact_minimizer(obj: Objective) -> np.ndarray:
    """Minimize by exact Newton from w = 0 until ||grad|| <= 1e-12 max(1, ||grad(0)||).

    Relative, so that large labels do not ask for more digits than float64
    holds.  Raises :class:`~detavg.errors.NoConvergence` if 100 steps do not
    get there; a gradient norm past float max reads inf (see
    :func:`linalg.norm`) and never counts.  A gradient that overflows raises
    :class:`~detavg.errors.NonFiniteResult` (see :meth:`Objective.gradient`).
    """
    w = np.zeros(obj.d)
    norm = linalg.norm(obj.gradient(w))
    target = _NEWTON_TOL * max(1.0, norm)
    for _ in range(_NEWTON_ITERS):
        if norm <= target < math.inf:
            return w
        w = w - obj.exact_newton_step(w)
        norm = linalg.norm(obj.gradient(w))
    if not norm <= target < math.inf:
        raise NoConvergence(f"exact Newton did not reach tol={_NEWTON_TOL} relative to the first "
                            f"gradient norm ({target:.3e}) in {_NEWTON_ITERS} iterations")
    return w


def run_distributed_newton(
    obj: Objective,
    w0: np.ndarray,
    iters: int,
    cfg: MachineConfig,
    seed: int,
) -> Trajectory:
    """Iterate w <- w - merged_step for ``iters`` rounds.

    Iteration i draws fresh masks from streams keyed by (seed, i, machine).
    Distances are measured to the minimizer found by exact Newton iteration
    driven to gradient norm 1e-12 relative to the first (see
    :func:`exact_minimizer`).
    """
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    w_star = exact_minimizer(obj)
    w = np.asarray(w0, dtype=float).copy()
    iterates = [w.copy()]
    for i in range(iters):
        report = merged_step(obj, w, cfg, seed, trial=i)
        w = w - report.step
        iterates.append(w.copy())
    iterates = np.array(iterates)
    dists = linalg.norm(iterates - w_star)
    losses = np.array([obj.loss_value(wi) for wi in iterates])
    return Trajectory(
        scheme=cfg.scheme.value,
        iterates=iterates,
        dist_to_opt=dists,
        losses=losses,
        w_star=w_star,
    )


def coherence(obj: Objective, w: np.ndarray) -> float:
    """Largest curvature-weighted leverage of any row, (1/d) max_i l_i''
    ||x_i||^2 measured in the inverse-Hessian norm.

    Rows of zeros contribute nothing; the value is 0 exactly when no row
    carries curvature.
    """
    w = np.asarray(w, dtype=float)
    X = obj.data.X
    curv = obj.loss.d2value(X @ w)
    H = obj.hessian(w)
    Y = linalg.solve_psd(H, X.T)
    quad = np.einsum("ij,ji->i", X, Y)
    return float(np.max(curv * quad, initial=0.0) / obj.data.d)
