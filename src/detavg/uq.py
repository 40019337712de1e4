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
each machine's covariance once, ``Sigma_hat_t = V diag(lambda) V^T``, in
one :func:`sketch.local_fleet`, and reads every fleet size off that
spectrum: the ridged eigenvalues are ``lambda + eta/sqrt(m)``.  The
smallest ridge of the sweep is checked against every spectrum as the fleet
is built, so a failing machine is named before any estimate is combined.
The single-machine :func:`local_uq_estimate` runs the fleet's functions on
a stack of one, so a machine a fleet names fails the same way on replay;
only the exact reference runs a Cholesky factorization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .averaging import LocalEstimate, weighted_means
from .errors import NotPositiveDefinite, SingularCovariance
from .objective import Dataset, gram, gram_tail
from .sketch import SketchMask, check_sweep, local_covariance, local_fleet


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
    """Statistic of A^{-1} plus log det A, from one Cholesky factorization:
    the exact reference, independent of the machines' eigen route.  Raises
    ``NotPositiveDefinite`` where the factorization fails, which is not a
    machine's refusal rule (see :func:`_spectra`).  ``A`` must be exactly
    symmetric (see :func:`linalg.factor_solve`)."""
    inverse, log_det = linalg.factor_solve(A, np.eye(A.shape[0]))
    inv_diag = np.diag(inverse).copy()
    return (float(inv_diag.sum()) if statistic is Statistic.TRACE else inv_diag), float(log_det)


def _spectra(C: np.ndarray, ridge: float, statistic: Statistic) -> tuple[np.ndarray, ...]:
    """Spectra of a stack of covariances C (b, d, d): the eigenvalues (b, d)
    from ``eigvalsh`` for the trace, plus the squared eigenvectors ``V * V``
    (b, d, d) from ``eigh`` for the diagonal.  A covariance whose smallest
    eigenvalue plus ``ridge`` is NaN or at most ``d / float max`` (the trace
    of its ridged inverse would not be finite) raises ``NotPositiveDefinite``,
    ``index`` the first such: the one refusal rule of every machine.
    """
    if statistic is Statistic.TRACE:
        spectra = (np.linalg.eigvalsh(C),)
    else:
        eigenvalues, V = np.linalg.eigh(C)
        spectra = (eigenvalues, V * V)
    # eigenvalues come in ascending order; a NaN fails the test too
    bad = np.flatnonzero(~(spectra[0][:, 0] + ridge > C.shape[-1] / np.finfo(float).max))
    if bad.size:
        raise NotPositiveDefinite("ridged covariance is not positive definite", index=int(bad[0]))
    return spectra


def _estimates(spectra: tuple[np.ndarray, ...], ridge: float,
               statistic: Statistic) -> tuple[np.ndarray, np.ndarray]:
    """Values and log-determinants of the ridged matrices ``C + ridge I`` of
    :func:`_spectra`'s stack.  Each has the eigenvectors of C and the
    eigenvalues ``s = lambda + ridge``, so its log-determinant is ``sum log
    s``, the trace of its inverse ``sum 1/s`` and the diagonal of its
    inverse ``(V*V) @ (1/s)``."""
    s = spectra[0] + ridge
    inv_s = 1.0 / s
    values = (inv_s.sum(axis=1) if statistic is Statistic.TRACE
              else np.einsum("tij,tj->ti", spectra[1], inv_s))
    return values, np.log(s).sum(axis=1)


def local_uq_estimate(
    data: Dataset, mask: SketchMask, eta: float, m: int, statistic: Statistic
) -> LocalEstimate:
    """One machine's statistic of the ridged subsampled precision matrix.

    The value is F((Sigma_hat + (eta/sqrt(m)) I)^{-1}) and the log-weight
    is log det(Sigma_hat + (eta/sqrt(m)) I).  An empty subsample reduces
    to the pure ridge, whose inverse trace is d sqrt(m) / eta.  It runs a
    fleet's :func:`_spectra` and :func:`_estimates` on a stack of one, so it
    refuses what a fleet refuses: ``NotPositiveDefinite`` by the floor test,
    ``NonFiniteResult`` for a spectrum that is not finite.
    """
    ridge = eta / np.sqrt(m)
    with np.errstate(all="ignore"):  # the spectrum is checked below
        spectra = _spectra(local_covariance(data, mask)[None], ridge, statistic)
        for out in spectra:
            linalg.require_finite(out, "the spectrum of the local covariance")
        values, log_dets = _estimates(spectra, ridge, statistic)
    value = float(values[0]) if statistic is Statistic.TRACE else values[0]
    return LocalEstimate(value=value, log_weight=float(log_dets[0]))


def exact_statistic(data: Dataset, statistic: Statistic) -> float | np.ndarray:
    """Statistic of the unridged inverse covariance (1/n X^T X)^{-1}.

    Raises
    ------
    SingularCovariance
        If the covariance is not invertible, e.g. when n < d.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = gram_tail(gram(np.empty((data.d, data.d)), data.X), data.n)
    linalg.require_finite(sigma, "the full-data covariance")
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


def _local_spectra(
    data: Dataset, k: int, eta: float, m: int, seed: int, trial: int, statistic: Statistic
) -> tuple[np.ndarray, ...]:
    """:func:`_spectra` of machines 0..m-1 at the fleet's smallest ridge
    ``eta/sqrt(m)``, from one :func:`sketch.local_fleet`, whose covariances
    are :func:`sketch.local_covariance`'s bit for bit.  A failing machine is
    named by its triple, so the others hold in every fleet of at most m."""
    ridge = eta / np.sqrt(m)
    return local_fleet(data.X, 1.0, 0.0, lambda C: _spectra(C, ridge, statistic), k, m, seed,
                       trial)


def _fleet_estimate(spectra: tuple[np.ndarray, ...], m: int, eta: float,
                    statistic: Statistic) -> float | np.ndarray:
    """Determinant-weighted statistic of the fleet of machines 0..m-1, from
    the :func:`_local_spectra` of at least m machines: O(m d) (trace) or
    O(m d^2) (diagonal) per fleet size, whatever the grid of m."""
    values, log_dets = _estimates(tuple(out[:m] for out in spectra), eta / np.sqrt(m), statistic)
    estimate = weighted_means(values, log_dets, [m])[0]
    return float(estimate) if statistic is Statistic.TRACE else estimate


def _abs_err(estimate: float | np.ndarray, exact: float | np.ndarray) -> float:
    return linalg.norm(np.atleast_1d(np.asarray(estimate) - np.asarray(exact)))


def estimate_precision_statistic(
    data: Dataset, cfg: UqConfig, seed: int, trial: int = 0
) -> tuple[float | np.ndarray, float | np.ndarray, float]:
    """Determinant-weighted distributed estimate, its exact value, and the error.

    Machine t draws its subsample from the stream keyed by (seed, trial, t).
    The error is the Euclidean norm of the elementwise deviation, which for
    the trace statistic is just the absolute error.
    """
    exact = exact_statistic(data, cfg.statistic)
    spectra = _local_spectra(data, cfg.k, cfg.eta, cfg.m, seed, trial, cfg.statistic)
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
) -> list[UqRow]:
    """Error table for the precision-statistic estimator over a grid of m.

    The ``estimate`` and ``exact`` columns carry the scalar entry sum of
    the statistic, which for the trace statistic is the statistic itself
    and for the diagonal equals the matching trace estimate.  ``abs_err``
    is the Euclidean norm of the elementwise deviation.

    Trials run one after another; trial i uses streams keyed by
    (seed, i, *).  Returns rows sorted by (m, trial).
    """
    check_sweep(m_list, trials)
    UqConfig(m=m_list[0], k=k, eta=eta, statistic=statistic)  # validates k, eta
    exact = exact_statistic(data, statistic)
    exact_sum = float(np.atleast_1d(np.asarray(exact, dtype=float)).sum())

    def run(trial: int) -> list[float | np.ndarray]:
        # each machine is drawn and decomposed once per trial; the fleet of
        # size m is the first m of them, as in estimate_precision_statistic
        spectra = _local_spectra(data, k, eta, m_list[-1], seed, trial, statistic)
        return [_fleet_estimate(spectra, m, eta, statistic) for m in m_list]

    per_trial = [run(trial) for trial in range(trials)]
    rows = []
    for i, m in enumerate(m_list):
        for trial in range(trials):
            est = per_trial[trial][i]
            rows.append(UqRow(statistic.value, m, k, eta, trial, float(np.sum(est)),
                              exact_sum, _abs_err(est, exact)))
    return rows
