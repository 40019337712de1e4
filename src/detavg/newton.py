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
from .errors import NoConvergence, NonFiniteResult
from .objective import Objective, hessian_rows
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
    err_euclidean: float
    err_hnorm: float


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

    ``dist_to_opt[i]`` is ``linalg.norm(iterates[i] - w_star)``, the distance
    of iterate i from the minimizer found by exact Newton iteration, and
    ``losses[i]`` the objective value there.
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
    It refuses what a fleet refuses: ``NotPositiveDefinite`` from
    ``factor_solve``, ``NonFiniteResult`` for a non-finite step or log-weight.
    """
    if grad is None:
        grad = obj.gradient(w)
    with np.errstate(all="ignore"):  # the step is checked below, as in a fleet
        step, log_det = linalg.factor_solve(local_hessian(obj, w, mask), grad)
    if not (np.isfinite(step).all() and math.isfinite(log_det)):
        raise NonFiniteResult("the local step or its log-weight is not finite")
    return LocalEstimate(value=step, log_weight=float(log_det))


def _local_steps(
    obj: Objective, w: np.ndarray, grad: np.ndarray, k: int, m: int, seed: int, trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """Steps (m, d) and log-determinants (m,) of machines 0..m-1 of one fleet,
    from rows weighted once per fleet; row t is bit-identical to
    :func:`local_newton_estimate` for machine t."""
    Z, f = hessian_rows(obj.loss, obj.data.X, w)
    return local_fleet(Z, f, obj.lam, lambda H: linalg.factor_solve(H, grad), k, m, seed, trial)


def _merged_steps(
    obj: Objective, w: np.ndarray, grad: np.ndarray, k: int, m_list: list[int],
    schemes: list[Scheme], seed: int, trial: int,
) -> dict[Scheme, np.ndarray]:
    """Merged steps (len(m_list), d) per scheme, from one fleet of
    max(m_list) machines: the merge at m is over its first m machines, and
    every scheme merges the same steps (common random numbers)."""
    steps, log_dets = _local_steps(obj, w, grad, k, max(m_list), seed, trial)
    return {s: weighted_means(steps, s.log_weights(log_dets), m_list) for s in schemes}


def _step_errors(step: np.ndarray, exact: np.ndarray, H: np.ndarray) -> tuple[float, float]:
    """Euclidean and H-norm of ``step - exact``, for an H that
    ``linalg.solve_psd`` has checked when it solved for ``exact``."""
    with np.errstate(over="ignore"):
        diff = step - exact
    return linalg.norm(diff), linalg._mahalanobis_norm(diff, H)


def merged_step(
    obj: Objective, w: np.ndarray, cfg: MachineConfig, seed: int, trial: int = 0
) -> StepReport:
    """Draw cfg.m machines, merge their local steps, compare to the exact step.

    Machine t draws its mask from the stream keyed by (seed, trial, t), so
    a report is reproducible from (config, seed, trial) alone.
    """
    w = np.asarray(w, dtype=float)
    grad = obj.gradient(w)
    step = _merged_steps(obj, w, grad, cfg.k, [cfg.m], [cfg.scheme], seed, trial)[cfg.scheme][0]
    H = obj.hessian(w)
    err_euclidean, err_hnorm = _step_errors(step, linalg.solve_psd(H, grad), H)
    return StepReport(step=step, err_euclidean=err_euclidean, err_hnorm=err_hnorm)


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
    per_trial = [_merged_steps(obj, w, grad, k, m_list, schemes, seed, trial)
                 for trial in range(trials)]
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
    g = obj.gradient(w)
    norm = linalg.norm(g)
    target = _NEWTON_TOL * max(1.0, norm)
    for _ in range(_NEWTON_ITERS):
        if norm <= target < math.inf:
            return w
        # the exact Newton step at w, with the gradient already in hand
        w = w - linalg.solve_psd(obj.hessian(w), g)
        g = obj.gradient(w)
        norm = linalg.norm(g)
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
    """Iterate w <- w - (merged step of cfg.m machines) for ``iters`` rounds.

    Iteration i draws fresh masks from streams keyed by (seed, i, machine),
    so its step is :func:`merged_step`'s at trial i, without the exact step
    and the errors that :func:`merged_step` computes against it.
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
        merged = _merged_steps(obj, w, obj.gradient(w), cfg.k, [cfg.m], [cfg.scheme], seed, i)
        w = w - merged[cfg.scheme][0]
        iterates.append(w.copy())
    iterates = np.array(iterates)
    dists = np.array([linalg.norm(wi - w_star) for wi in iterates])
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
    x_i^T H^-1 x_i, read as f z_i^T H^-1 z_i off the rows of
    :func:`hessian_rows` by :func:`linalg.inverse_forms`.

    Rows of zeros contribute nothing; the value is 0 exactly when no row
    carries curvature.
    """
    Z, f = hessian_rows(obj.loss, obj.data.X, w)
    quad = linalg.inverse_forms(obj.hessian(w), Z.T)
    return float(np.max(f * quad, initial=0.0) / obj.data.d)
