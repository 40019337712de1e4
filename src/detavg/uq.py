"""Distributed estimation of precision-matrix statistics.

Each machine inverts a ridged subsampled second-moment matrix
``Sigma_hat_t + (eta / sqrt(m)) I`` and reports a statistic of that
inverse (its trace, or its full diagonal) together with the determinant
of the inverted matrix as a weight.  The ridge guarantees invertibility
even on empty subsamples and shrinks as machines are added, so the
determinant-weighted combination converges to the statistic of the
unridged inverse covariance, which is also the exact reference the
estimates are scored against.

The ridges of a sweep differ only in their shift, so a fleet decomposes
each machine's covariance once, ``Sigma_hat_t = V diag(lambda) V^T``, and
reads every fleet size off that spectrum: the ridged eigenvalues are
``lambda + eta/sqrt(m)``.  The exact reference and the single-machine
:func:`local_uq_estimate` stay on Cholesky factorizations, independent of
the eigen route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not 0 < self.eta < math.inf:
            raise ValueError(f"ridge scale eta must be positive and finite, got {self.eta}")


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

    The route of the exact reference and of a single machine, kept apart
    from the eigendecompositions the fleets use.  ``A`` must be exactly
    symmetric (see :func:`linalg.factor_solve`).
    """
    inverse, log_det = linalg.factor_solve(A, np.eye(A.shape[0]))
    inv_diag = np.diag(inverse)
    log_det = float(log_det)
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


class _Spectra(NamedTuple):
    """Eigendecompositions of the subsampled covariances of one trial's machines.

    Row t belongs to the machine whose mask is keyed by (seed, trial, t).
    """

    eigenvalues: np.ndarray  # (m, d)
    sq_eigenvectors: np.ndarray | None  # (m, d, d) entries V**2; None for the trace
    seed: int
    trial: int


def _local_spectra(
    data: Dataset, k: int, m: int, seed: int, trial: int, statistic: Statistic
) -> _Spectra:
    """Spectra of machines 0..m-1, decomposing their stacked covariances.

    The trace needs only the eigenvalues (``eigvalsh``); the diagonal also
    keeps the squared eigenvectors (``eigh``).  The covariances are stacked
    :func:`linalg.block_size` at a time, so a large-d fleet never holds all
    m of them at once.
    """
    d = data.d
    block = linalg.block_size(d)
    eigenvalues = np.empty((m, d))
    sq_eigenvectors = None if statistic is Statistic.TRACE else np.empty((m, d, d))
    covs = np.empty((min(block, m), d, d))
    for start in range(0, m, block):
        stop = min(start + block, m)
        for t in range(start, stop):
            covs[t - start] = local_covariance(data, draw_mask(data.n, k, SeedSpec(seed, trial, t)))
        if sq_eigenvectors is None:
            eigenvalues[start:stop] = np.linalg.eigvalsh(covs[:stop - start])
        else:
            eigenvalues[start:stop], V = np.linalg.eigh(covs[:stop - start])
            sq_eigenvectors[start:stop] = V * V
    return _Spectra(eigenvalues, sq_eigenvectors, seed, trial)


def _fleet_estimate(spectra: _Spectra, m: int, eta: float, statistic: Statistic
                    ) -> float | np.ndarray:
    """Determinant-weighted statistic of the fleet of machines 0..m-1.

    Machine t's ridged matrix ``Sigma_hat_t + (eta/sqrt(m)) I`` has the
    eigenvectors of ``Sigma_hat_t`` and the eigenvalues ``s = lambda +
    eta/sqrt(m)``, so its log-determinant is ``sum log s``, the trace of
    its inverse ``sum 1/s`` and the diagonal of its inverse ``(V*V) @
    (1/s)``.  Each fleet size costs O(m d) (trace) or O(m d^2) (diagonal)
    on top of the one decomposition per machine, whatever the grid of m.

    Raises
    ------
    NotPositiveDefinite
        Naming the (seed, trial, machine) triple of the first machine with
        a non-positive ridged eigenvalue.
    """
    s = spectra.eigenvalues[:m] + eta / np.sqrt(m)
    bad = np.flatnonzero(~np.all(s > 0, axis=1))
    if bad.size:
        raise NotPositiveDefinite(
            f"ridged covariance of (seed, trial, machine) = "
            f"({spectra.seed}, {spectra.trial}, {bad[0]}) is not positive definite "
            f"(smallest eigenvalue {s[bad[0]].min():.3e})", index=int(bad[0]),
        )
    inv_s = 1.0 / s
    if statistic is Statistic.TRACE:
        values = inv_s.sum(axis=1)
    else:
        values = np.einsum("tij,tj->ti", spectra.sq_eigenvectors[:m], inv_s)
    estimate = weighted_means(values, np.log(s).sum(axis=1), [m])[0]
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
    spectra = _local_spectra(data, cfg.k, cfg.m, seed, trial, cfg.statistic)
    estimate = _fleet_estimate(spectra, cfg.m, cfg.eta, cfg.statistic)
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
        # each machine is drawn and decomposed once per trial; the fleet of
        # size m is the first m of them, as in estimate_precision_statistic
        spectra = _local_spectra(data, k, m_list[-1], seed, trial, statistic)
        return [_fleet_estimate(spectra, m, eta, statistic) for m in m_list]

    per_trial = parallel_map(run, range(trials), threads)
    rows = []
    for i, m in enumerate(m_list):
        for trial in range(trials):
            est = per_trial[trial][i]
            rows.append(UqRow(statistic.value, m, k, eta, trial, float(np.sum(est)),
                              exact_sum, _abs_err(est, exact)))
    return rows
