"""Regularized empirical-risk objectives over linear predictions.

An :class:`Objective` is

    L(w) = (1/n) sum_i l_i(w @ x_i) + (lam / 2) * ||w||^2

with per-example convex losses ``l_i`` evaluated at the linear prediction,
so the Hessian is a scaled Gram matrix plus a ridge:

    grad L(w) = (1/n) sum_i l_i'(w @ x_i) x_i + lam * w
    hess L(w) = (1/n) sum_i l_i''(w @ x_i) x_i x_i^T + lam * I

The ridge term makes the Hessian positive definite (eigenvalues >= lam),
which every solver in the package relies on.  Every Gram matrix is
``gram_tail(gram(out, Z), scale, ridge)``: :func:`gram` writes Z^T Z as an
exactly symmetric rank-k update, then :func:`gram_tail` divides it by the
scale and adds the scalar ridge to its diagonal, in place.  A covariance
takes Z = X, a Hessian the rows of :func:`hessian_rows` (f Z^T Z = sum_i
l_i'' x_i x_i^T) and scale / f.  The exact references pass every row and
n, a machine the rows of its mask and k.  A fleet weights the rows once,
writes each machine's product into its slot of a stack and runs the tail
once per stack, with the same operations in the same order, so every
machine's matrix is bit-identical to the single-matrix route.  The
logistic loss computes its sigmoid and curvature with numpy alone, without
overflow or cancellation at any prediction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one label per row.

    Attributes
    ----------
    X : ndarray of shape (n, d), stored C-contiguous
    y : ndarray of shape (n,)
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # stored C-contiguous, so that gram on X (or on rows weighted from
        # it) is always numpy's syrk route
        X = np.ascontiguousarray(self.X, dtype=float)
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


def hessian_rows(loss: LossKind, X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Rows Z and factor f with f Z^T Z = sum_i l_i''(w @ x_i) x_i x_i^T over
    the rows of X: X itself, uncopied, and 2 for the square loss, so G / (n /
    2) rounds as (2 G) / n; X scaled by sqrt(l_i'') and 1 for the logistic."""
    if loss is LossKind.SQUARE:
        return X, 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        return X * np.sqrt(loss.d2value(X @ w))[:, None], 1.0


def gram(out: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Write Z^T Z into ``out`` and return it; no rows give zero.  Every
    caller passes a C-contiguous Z (``Dataset.X``, :func:`hessian_rows`'
    output, compressed rows), whose Z^T and Z share a buffer, so numpy runs
    BLAS's syrk and mirrors its triangle: the product is exactly symmetric.
    A column-strided Z may take the general product, whose triangles differ."""
    return np.matmul(Z.T, Z, out=out)


def gram_tail(G: np.ndarray, scale: float, ridge: float | None = None) -> np.ndarray:
    """Overwrite G with G/scale + ridge I and return it, for one exactly
    symmetric product G of shape (d, d) or a stack of them, (b, d, d).

    One in-place division, then ``ridge`` added to the diagonal of each
    matrix through a writeable view; without a ridge nothing is added."""
    np.divide(G, scale, out=G)
    if ridge is not None:
        diagonal = np.einsum("...ii->...i", G)  # a writeable view of G, never a copy
        diagonal += ridge
    return G


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
            g = np.einsum("ij,i->j", self.data.X, self.loss.dvalue(z, self.data.y)) / self.data.n
            g = g + self.lam * w
        return linalg.require_finite(g, "the full-data gradient")

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            Z, f = hessian_rows(self.loss, self.data.X, w)
            H = gram_tail(gram(np.empty((self.d, self.d)), Z), self.data.n / f, self.lam)
        return linalg.require_finite(H, "the full-data Hessian")

    def exact_newton_step(self, w: np.ndarray) -> np.ndarray:
        """Step p solving hess(w) p = grad(w); the update is w - p."""
        return linalg.solve_psd(self.hessian(w), self.gradient(w))
