"""Distributed estimation of precision-matrix statistics.

Each machine inverts a ridged subsampled second-moment matrix
``Sigma_hat_t + (eta / sqrt(m)) I`` and reports a statistic of that
inverse (its trace, or its full diagonal) together with the determinant
of the inverted matrix as a weight.  The ridge guarantees invertibility
even on empty subsamples and shrinks as machines are added, so the
determinant-weighted combination converges to the statistic of the
unridged inverse covariance, which is also the exact reference the
estimates are scored against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .averaging import LocalEstimate, weighted_means
from .errors import NotPositiveDefinite, SingularCovariance
from .objective import Dataset
from .parallel import parallel_map
from .sketch import SeedSpec, SketchMask, draw_mask, local_covariance


class Statistic(enum.Enum):
    """Function of the precision matrix being estimated."""

    TRACE = "trace"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class UqConfig:
    """Fleet size, local sample size, ridge scale, and target statistic."""

    m: int
    k: int
    eta: float = 1.0
    statistic: Statistic = Statistic.TRACE

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one machine, got m={self.m}")
        if self.k < 1:
            raise ValueError(f"need a positive sample size, got k={self.k}")
        if not self.eta > 0:
            raise ValueError(f"ridge scale eta must be positive, got {self.eta}")


@dataclass(frozen=True)
class UqRow:
    statistic: str
    m: int
    k: int
    eta: float
    trial: int
    estimate: float
    exact: float
    abs_err: float


def _statistic_of_inverse(A: np.ndarray, statistic: Statistic) -> tuple[float | np.ndarray, float]:
    """Statistic of A^{-1} plus log det A, from one Cholesky factorization.

    ``A`` must be exactly symmetric (see :func:`linalg.factor_solve`).
    """
    inverse, log_det = linalg.factor_solve(A, np.eye(A.shape[0]))
    inv_diag = np.diag(inverse)
    if statistic is Statistic.TRACE:
        return float(inv_diag.sum()), log_det
    return inv_diag.copy(), log_det


def local_uq_estimate(
    data: Dataset, mask: SketchMask, eta: float, m: int, statistic: Statistic
) -> LocalEstimate:
    """One machine's statistic of the ridged subsampled precision matrix.

    The value is F((Sigma_hat + (eta/sqrt(m)) I)^{-1}) and the log-weight
    is log det(Sigma_hat + (eta/sqrt(m)) I).  An empty subsample reduces
    to the pure ridge, whose inverse trace is d sqrt(m) / eta.
    """
    ridge = eta / np.sqrt(m)
    A = local_covariance(data, mask) + ridge * np.eye(data.d)
    value, log_det = _statistic_of_inverse(A, statistic)
    return LocalEstimate(value=value, log_weight=log_det)


def exact_statistic(data: Dataset, statistic: Statistic) -> float | np.ndarray:
    """Statistic of the unridged inverse covariance (1/n X^T X)^{-1}.

    Raises
    ------
    SingularCovariance
        If the covariance is not invertible, e.g. when n < d.
    """
    sigma = linalg.symmetrize(data.X.T @ data.X / data.n)
    # roundoff can hand a rank-deficient matrix a tiny positive pivot, so a
    # successful factorization alone does not certify invertibility
    spectrum = np.linalg.eigvalsh(sigma)
    if spectrum[0] <= spectrum[-1] * 1e-12:
        raise SingularCovariance(
            "covariance is singular to working precision "
            f"(eigenvalue range [{spectrum[0]:.3e}, {spectrum[-1]:.3e}])"
        )
    try:
        value, _ = _statistic_of_inverse(sigma, statistic)
    except NotPositiveDefinite as exc:
        raise SingularCovariance(f"covariance is singular: {exc}") from exc
    return value


def _local_covariances(data: Dataset, k: int, m: int, seed: int, trial: int) -> list[np.ndarray]:
    """Subsampled covariances of machines 0..m-1, masks keyed by (seed, trial, t)."""
    return [local_covariance(data, draw_mask(data.n, k, SeedSpec(seed, trial, t)))
            for t in range(m)]


def _fleet_estimate(
    covs: list[np.ndarray], eta: float, statistic: Statistic
) -> float | np.ndarray:
    """Determinant-weighted statistic of a fleet with one machine per covariance.

    The ridge eta/sqrt(m) depends on the fleet size m = len(covs), so every
    machine is refactorized for each fleet size.
    """
    m = len(covs)
    ridge_eye = eta / np.sqrt(m) * np.eye(covs[0].shape[0])
    pairs = [_statistic_of_inverse(cov + ridge_eye, statistic) for cov in covs]
    values = np.array([value for value, _ in pairs])
    log_dets = np.array([log_det for _, log_det in pairs])
    estimate = weighted_means(values, log_dets, [m])[0]
    return float(estimate) if statistic is Statistic.TRACE else estimate


def _abs_err(estimate: float | np.ndarray, exact: float | np.ndarray) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(estimate) - np.asarray(exact))))


def estimate_precision_statistic(
    data: Dataset, cfg: UqConfig, seed: int, trial: int = 0
) -> tuple[float | np.ndarray, float | np.ndarray, float]:
    """Determinant-weighted distributed estimate, its exact value, and the error.

    Machine t draws its subsample from the stream keyed by (seed, trial, t).
    The error is the Euclidean norm of the elementwise deviation, which for
    the trace statistic is just the absolute error.
    """
    exact = exact_statistic(data, cfg.statistic)
    covs = _local_covariances(data, cfg.k, cfg.m, seed, trial)
    estimate = _fleet_estimate(covs, cfg.eta, cfg.statistic)
    return estimate, exact, _abs_err(estimate, exact)


def uq_sweep(
    data: Dataset,
    k: int,
    eta: float,
    m_list: list[int],
    trials: int,
    statistic: Statistic,
    seed: int,
    threads: int = 1,
) -> list[UqRow]:
    """Error table for the precision-statistic estimator over a grid of m.

    The ``estimate`` and ``exact`` columns carry the scalar entry sum of
    the statistic, which for the trace statistic is the statistic itself
    and for the diagonal equals the matching trace estimate.  ``abs_err``
    is the Euclidean norm of the elementwise deviation.

    Returns rows sorted by (m, trial); identical output at any ``threads``.
    """
    if len(m_list) == 0 or any(m < 1 for m in m_list):
        raise ValueError(f"machine counts must be positive, got {m_list}")
    if sorted(set(m_list)) != list(m_list):
        raise ValueError(f"m_list must be strictly increasing, got {m_list}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    UqConfig(m=m_list[0], k=k, eta=eta, statistic=statistic)  # validates k, eta
    exact = exact_statistic(data, statistic)
    exact_sum = float(np.atleast_1d(np.asarray(exact, dtype=float)).sum())

    def run(trial: int) -> list[float | np.ndarray]:
        # covariances are drawn once per trial; the fleet of size m is the
        # first m of them, as in estimate_precision_statistic
        covs = _local_covariances(data, k, m_list[-1], seed, trial)
        return [_fleet_estimate(covs[:m], eta, statistic) for m in m_list]

    per_trial = parallel_map(run, range(trials), threads)
    rows = []
    for i, m in enumerate(m_list):
        for trial in range(trials):
            est = per_trial[trial][i]
            rows.append(UqRow(statistic.value, m, k, eta, trial, float(np.sum(est)),
                              exact_sum, _abs_err(est, exact)))
    return rows
