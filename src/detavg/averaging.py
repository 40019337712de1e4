"""Determinant-weighted combination of local estimates.

Weights arrive in the log domain (log-determinants of the local matrices)
because the determinants themselves overflow or underflow long before the
weighted mean becomes ill defined.  The reduction normalizes by the largest
log-weight before exponentiating, so ratios are computed exactly even when
log-weights sit at +-40000; adding a constant to every log-weight leaves
the result unchanged.  Uniform averaging is the same reduction with every
log-weight zero, as ``newton.Scheme.UNIFORM.log_weights`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, NonFiniteWeight

Value = Union[float, np.ndarray]


@dataclass(frozen=True)
class LocalEstimate:
    """One machine's contribution: a value and the log of its weight."""

    value: Value
    log_weight: float


def weighted_means(
    values: np.ndarray, log_weights: np.ndarray, counts: Iterable[int]
) -> np.ndarray:
    """Weighted mean sum_t w_t v_t / sum_t w_t of each prefix ``values[:c]``.

    Parameters
    ----------
    values : ndarray of shape (m, ...)
        One estimate per machine, stacked along the first axis.
    log_weights : ndarray of shape (m,)
        Finite log-weights, ``w_t = exp(log_weights[t])``.
    counts : iterable of int
        Prefix lengths, each in 1..m.

    Returns
    -------
    means : ndarray of shape (len(counts), ...)
        ``means[i]`` is the weighted mean of the first ``counts[i]`` values.
        Each prefix is shifted by its own largest log-weight, so a heavy
        weight later in the batch cannot underflow an earlier prefix.

    Raises
    ------
    NonFiniteWeight
        If a log-weight is NaN or infinite.
    DimensionMismatch
        If ``log_weights`` is not one weight per row of ``values``.
    """
    values = np.asarray(values, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    m = len(log_weights)
    if log_weights.ndim != 1 or values.shape[:1] != (m,):
        raise DimensionMismatch(
            f"{log_weights.shape} log-weights for values of shape {values.shape}"
        )
    if not np.all(np.isfinite(log_weights)):
        bad = log_weights[~np.isfinite(log_weights)]
        raise NonFiniteWeight(f"log-weights must be finite, got {bad}")
    means = []
    for c in counts:
        if not 1 <= c <= m:
            raise ValueError(f"prefix count {c} outside 1..{m}")
        logs = log_weights[:c]
        # shift by the max so the largest weight is exactly 1
        w = np.exp(logs - logs.max())
        means.append(np.tensordot(w, values[:c], axes=(0, 0)) / w.sum())
    return np.stack(means)


def combine_determinantal(estimates: Sequence[LocalEstimate]) -> Value:
    """Weighted mean sum_t w_t v_t / sum_t w_t with w_t = exp(log_weight_t).

    Parameters
    ----------
    estimates : sequence of LocalEstimate
        Values of a common shape with finite log-weights.

    Raises
    ------
    EmptyBatch
        If no estimates are given.
    DimensionMismatch
        If value shapes disagree.
    NonFiniteWeight
        If a log-weight is NaN or infinite.
    """
    if len(estimates) == 0:
        raise EmptyBatch("no estimates to combine")
    values = [np.asarray(e.value, dtype=float) for e in estimates]
    shape = values[0].shape
    for v in values[1:]:
        if v.shape != shape:
            raise DimensionMismatch(f"value shapes differ: {shape} vs {v.shape}")
    logs = np.array([e.log_weight for e in estimates], dtype=float)
    mean = weighted_means(np.stack(values), logs, [len(values)])[0]
    return float(mean) if mean.ndim == 0 else mean
