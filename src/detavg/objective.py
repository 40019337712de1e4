"""Regularized empirical-risk objectives over linear predictions.

An :class:`Objective` is

    L(w) = (1/n) sum_i l_i(w @ x_i) + (lam / 2) * ||w||^2

with per-example convex losses ``l_i`` evaluated at the linear prediction,
so the Hessian is a scaled Gram matrix plus a ridge:

    grad L(w) = (1/n) sum_i l_i'(w @ x_i) x_i + lam * w
    hess L(w) = (1/n) sum_i l_i''(w @ x_i) x_i x_i^T + lam * I

The ridge term makes the Hessian positive definite (eigenvalues >= lam),
which every solver in the package relies on.  :func:`hessian_into` is the
package's one Hessian formula and :func:`covariance_into` its one
second-moment formula: the exact references pass them every row and n, a
machine the rows of its mask and k.  Each is two parts composed on one
matrix: a raw Gram product over the rows (:func:`hessian_gram`,
:func:`covariance_gram`) and :func:`gram_tail`, which scales, symmetrizes and
adds the ridge.  A fleet writes each machine's product straight into its
slot of a stack and runs the tail once over the whole stack, with the same
operations in the same order, so every machine's matrix is bit-identical
to the single-matrix route.  The logistic loss computes its sigmoid and
curvature with numpy alone, without overflow or cancellation at any
prediction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one label per row.

    Attributes
    ----------
    X : ndarray of shape (n, d)
    y : ndarray of shape (n,)
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one column")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


class LossKind(enum.Enum):
    """Per-example loss applied to the linear prediction z = w @ x."""

    SQUARE = "square"
    LOGISTIC = "logistic"

    def value_terms(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self is LossKind.SQUARE:
            return (z - y) ** 2
        # log(1 + e^z) - y z, stable for large |z|
        return np.logaddexp(0.0, z) - y * z

    def dvalue(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self is LossKind.SQUARE:
            return 2.0 * (z - y)
        return _sigmoid(z) - y

    def d2value(self, z: np.ndarray) -> np.ndarray:
        """Curvature l''(z) at the predictions z; for both losses it is free of the labels."""
        if self is LossKind.SQUARE:
            return np.full_like(z, 2.0)
        # s (1 - s) without its cancellation where s nears 1: e / (1 + e)^2
        # with e = exp(-|z|), accurate to a few ulp down to the last subnormal
        e = np.exp(-np.abs(z))
        return e / (1.0 + e) ** 2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + e^-z), from e = exp(-|z|) so that nothing
    overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below.  No warning at any
    z, infinite ones included.  Where ``scipy.special.expit`` is at least
    1e-300 the two agree within 2 ulp for z >= 0 and 4 ulp below, where
    expit's own 1 / (1 + e^-z) is up to 2.3 ulp off the sigmoid."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def hessian_gram(out: np.ndarray, loss: LossKind, X: np.ndarray, w: np.ndarray) -> None:
    """Write the raw product sum_i l_i''(w @ x_i) x_i x_i^T over the rows of X
    into ``out``, unscaled and unsymmetrized; no rows give zero.  The square
    loss's constant curvature 2 scales X as a scalar, with the same bytes as
    the array of 2s and without computing X @ w."""
    curv = 2.0 if loss is LossKind.SQUARE else loss.d2value(X @ w)
    np.matmul(X.T * curv, X, out=out)


def covariance_gram(out: np.ndarray, X: np.ndarray) -> None:
    """Write the raw product sum_i x_i x_i^T over the rows of X into ``out``;
    no rows give zero."""
    np.matmul(X.T, X, out=out)


def gram_tail(G: np.ndarray, scale: float, out: np.ndarray,
              ridge: np.ndarray | None = None) -> np.ndarray:
    """Write (G/scale + (G/scale)^T)/2 + ridge into ``out`` and return it, for
    one raw product G of shape (d, d) or a stack of them, (b, d, d).

    Divides G in place, then adds it to its transpose in ``out``, halves and
    adds the ridge there: four elementwise calls whatever b is, and no
    temporary.  ``ridge`` of shape (d, d) is shared by the stack; without one
    nothing is added."""
    np.divide(G, scale, out=G)
    np.add(G, np.swapaxes(G, -1, -2), out=out)
    np.multiply(out, 0.5, out=out)
    if ridge is not None:
        np.add(out, ridge, out=out)
    return out


def stack_tail(scale: float,
               ridge: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`gram_tail` over stacks of raw products, as a function of the
    stack: its result goes into one buffer, allocated by the first (and
    largest) stack and reused by the rest, so a fleet holds one extra stack
    and allocates nothing before its first stack is built."""
    buffer = []

    def tail(G: np.ndarray) -> np.ndarray:
        if not buffer:
            buffer.append(np.empty_like(G))
        return gram_tail(G, scale, buffer[0][:len(G)], ridge)

    return tail


def hessian_into(out: np.ndarray, loss: LossKind, X: np.ndarray, w: np.ndarray,
                 scale: float, ridge: np.ndarray) -> None:
    """Write (1/scale) sum_i l_i''(w @ x_i) x_i x_i^T + ridge over the rows of
    X into ``out``, symmetrized as (H + H^T)/2; no rows give ``ridge``:
    :func:`hessian_gram` then :func:`gram_tail`."""
    G = np.empty_like(out)
    hessian_gram(G, loss, X, w)
    gram_tail(G, scale, out, ridge)


def covariance_into(out: np.ndarray, X: np.ndarray, scale: float) -> None:
    """Write (1/scale) sum_i x_i x_i^T over the rows of X into ``out``,
    symmetrized as (C + C^T)/2; no rows give zero: :func:`covariance_gram`
    then :func:`gram_tail`."""
    G = np.empty_like(out)
    covariance_gram(G, X)
    gram_tail(G, scale, out)


def _check_labels(loss: LossKind, y: np.ndarray) -> None:
    if loss is LossKind.LOGISTIC and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("logistic loss expects labels in {0, 1}")


@dataclass(frozen=True)
class Objective:
    """Dataset, loss kind, and ridge weight bundled with their calculus.

    Parameters
    ----------
    data : Dataset
    loss : LossKind
    lam : float
        Ridge weight, must be positive and finite.

    The full-data loss, gradient and Hessian raise
    :class:`~detavg.errors.NonFiniteResult`, without a numpy warning, where
    extreme data or iterates overflow them.
    """

    data: Dataset
    loss: LossKind = LossKind.SQUARE
    lam: float = field(default=1e-3)

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        _check_labels(self.loss, self.data.y)

    @property
    def d(self) -> int:
        return self.data.d

    def loss_value(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.data.X @ w
            terms = self.loss.value_terms(z, self.data.y)
            value = float(terms.mean() + 0.5 * self.lam * (w @ w))
        return linalg.require_finite(value, "the full-data loss")

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.data.X @ w
            g = self.data.X.T @ self.loss.dvalue(z, self.data.y) / self.data.n
            g = g + self.lam * w
        return linalg.require_finite(g, "the full-data gradient")

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        H = np.empty((self.d, self.d))
        with np.errstate(over="ignore", invalid="ignore"):
            hessian_into(H, self.loss, self.data.X, w, self.data.n, self.lam * np.eye(self.d))
        return linalg.require_finite(H, "the full-data Hessian")

    def exact_newton_step(self, w: np.ndarray) -> np.ndarray:
        """Step p solving hess(w) p = grad(w); the update is w - p."""
        return linalg.solve_psd(self.hessian(w), self.gradient(w))
