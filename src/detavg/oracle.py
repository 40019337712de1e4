"""Brute-force expectation oracle for sums of randomly scaled components.

The model is

    A = sum_i s_i Z_i + B

with fixed matrices ``Z_i``, a fixed base ``B``, and independent scale
variables ``s_i``, each with a small finite support.  For rank-one ``Z_i``
two exact identities hold:

    E[det A] = det(E[A])        and        E[adj A] = adj(E[A])

and consequently ``E[det(A) A^{-1}] / E[det A] = (E[A])^{-1}`` whenever A
is invertible on every outcome.  The oracle verifies these by enumerating
all support combinations, with determinants and adjugates computed by
cofactor expansion so singular outcomes are handled exactly.  With a
rank-two component the identities genuinely fail, and the test suite pins
a counterexample.

Everything here is exponential in the number of components and exists to
check the fast estimators, not to be one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import EnumerationBudgetExceeded
from .objective import Objective
from .sketch import SketchMask, local_hessian

_MAX_COMPONENTS = 20
_MAX_OUTCOMES = 1 << 20


@dataclass(frozen=True)
class Component:
    """One term s_i Z_i: a fixed matrix and the finite law of its scale."""

    matrix: np.ndarray
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"component matrix must be square, got {matrix.shape}")
        if len(values) != len(probs) or len(values) == 0:
            raise ValueError("support values and probabilities must align and be nonempty")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def mean_scale(self) -> float:
        return sum(v * p for v, p in zip(self.values, self.probs))


@dataclass(frozen=True)
class RandomRankOneSum:
    """A = sum_i s_i Z_i + B with independent finite-support scales s_i.

    The determinant/adjugate expectation identities require every ``Z_i``
    to have rank at most one; the class does not enforce that, so rank-two
    components can be used to demonstrate the identities failing.
    """

    components: tuple[Component, ...]
    base: np.ndarray

    def __post_init__(self):
        components = tuple(self.components)
        if len(components) == 0:
            raise ValueError("need at least one component")
        d = components[0].matrix.shape[0]
        base = np.asarray(self.base, dtype=float)
        if base.shape != (d, d):
            raise ValueError(f"base shape {base.shape} does not match d={d}")
        for c in components:
            if c.matrix.shape != (d, d):
                raise ValueError("all component matrices must share one dimension")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "base", base)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def n_outcomes(self) -> int:
        total = 1
        for c in self.components:
            total *= len(c.values)
        return total

    @classmethod
    def bernoulli(
        cls,
        matrices: Sequence[np.ndarray],
        gamma: float | Sequence[float],
        base: np.ndarray,
        scale: float | None = None,
    ) -> "RandomRankOneSum":
        """Model with s_i = scale * b_i, b_i ~ Bernoulli(gamma_i).

        The default ``scale = 1/gamma_i`` makes every term unbiased, so
        E[A] = sum_i Z_i + B; with ``scale=1`` the model is plain 0/1
        inclusion and E[A] = sum_i gamma_i Z_i + B.
        """
        mats = list(matrices)
        gammas = [float(gamma)] * len(mats) if np.isscalar(gamma) else [float(g) for g in gamma]
        if len(gammas) != len(mats):
            raise ValueError("one gamma per component required")
        comps = []
        for Z, g in zip(mats, gammas):
            if not 0.0 < g <= 1.0:
                raise ValueError(f"gamma must be in (0, 1], got {g}")
            s = (1.0 / g) if scale is None else float(scale)
            if g == 1.0:
                comps.append(Component(Z, (s,), (1.0,)))
            else:
                comps.append(Component(Z, (0.0, s), (1.0 - g, g)))
        return cls(components=tuple(comps), base=np.asarray(base, dtype=float))

    def mean(self) -> np.ndarray:
        """E[A] = sum_i E[s_i] Z_i + B, exactly."""
        total = self.base.copy()
        for c in self.components:
            total = total + c.mean_scale * c.matrix
        return total

    def outcomes(self) -> Iterator[tuple[float, np.ndarray]]:
        """Yield (probability, A) over the full product of supports."""
        self._check_budget()
        supports = [list(zip(c.values, c.probs)) for c in self.components]
        mats = [c.matrix for c in self.components]
        for combo in itertools.product(*supports):
            prob = 1.0
            A = self.base.copy()
            for (value, p), Z in zip(combo, mats):
                prob *= p
                if value != 0.0:
                    A += value * Z
            yield prob, A

    def _check_budget(self) -> None:
        if len(self.components) > _MAX_COMPONENTS:
            raise EnumerationBudgetExceeded(
                f"{len(self.components)} components exceed the cap of {_MAX_COMPONENTS}"
            )
        if self.n_outcomes > _MAX_OUTCOMES:
            raise EnumerationBudgetExceeded(
                f"{self.n_outcomes} outcomes exceed the cap of {_MAX_OUTCOMES}"
            )


def expect_det(model: RandomRankOneSum) -> float:
    """E[det A] by full enumeration, determinants by cofactor expansion."""
    return float(sum(p * linalg.det_cofactor(A) for p, A in model.outcomes()))


def expect_adjugate(model: RandomRankOneSum) -> np.ndarray:
    """E[adj A] by full enumeration, adjugates by cofactor minors."""
    total = np.zeros((model.dim, model.dim))
    for p, A in model.outcomes():
        total += p * linalg.adjugate_cofactor(A)
    return total


def expect_inverse(model: RandomRankOneSum) -> np.ndarray:
    """Unweighted E[A^{-1}]; the quantity plain averaging converges to.

    Requires A invertible on every outcome (guaranteed when the base is
    positive definite and all scales and components are positive
    semidefinite).
    """
    total = np.zeros((model.dim, model.dim))
    for p, A in model.outcomes():
        total += p * np.linalg.inv(A)
    return total


def expect_weighted_inverse(model: RandomRankOneSum) -> np.ndarray:
    """E[det(A) A^{-1}] / E[det A] by full enumeration.

    The determinant factor comes from the cofactor expansion while the
    inverse is a separate LAPACK solve, so agreement of this ratio with
    ``inv(E[A])`` is a genuine cross-check rather than an algebraic
    restatement of :func:`expect_adjugate`.
    """
    num = np.zeros((model.dim, model.dim))
    den = 0.0
    for p, A in model.outcomes():
        det = linalg.det_cofactor(A)
        num += p * det * np.linalg.inv(A)
        den += p * det
    return num / den


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case deviations of the expectation identities over a model suite.

    Deviations are relative with a unit floor:
    ``|lhs - rhs|_max / max(1, |rhs|_max)``.  ``counterexample_gap`` is the
    deviation of E[det A] from det(E[A]) on a fixed rank-two instance,
    where the identity is expected to fail.
    """

    models: int
    max_dev_det: float
    max_dev_adjugate: float
    max_dev_weighted_inverse: float
    hand_instance_dev: float
    counterexample_gap: float

    @property
    def max_identity_dev(self) -> float:
        return max(self.max_dev_det, self.max_dev_adjugate, self.max_dev_weighted_inverse)


def _rel_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    lhs = np.atleast_2d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    return float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))


def hand_checked_instance() -> RandomRankOneSum:
    """Three-component 2x2 model whose E[det A] works out to 6/8 = 0.75.

    Components [[1,1],[1,1]], e1 e1^T, e2 e2^T with plain 0/1 inclusion at
    probability 1/2 each and zero base; E[A] = [[1, 0.5], [0.5, 1]], so
    det(E[A]) = 0.75 and adj(E[A]) = [[1, -0.5], [-0.5, 1]].
    """
    mats = [
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    ]
    return RandomRankOneSum.bernoulli(mats, gamma=0.5, base=np.zeros((2, 2)), scale=1.0)


def rank_two_counterexample() -> RandomRankOneSum:
    """Single rank-two component for which E[det A] != det(E[A]).

    A = s I_2 with s in {0, 2} equally likely: E[det A] = 2 while
    det(E[A]) = det(I) = 1, a gap of 1.
    """
    comp = Component(matrix=np.eye(2), values=(0.0, 2.0), probs=(0.5, 0.5))
    return RandomRankOneSum(components=(comp,), base=np.zeros((2, 2)))


def random_model(rng: np.random.Generator, max_n: int = 8, max_d: int = 3) -> RandomRankOneSum:
    """Random rank-one-sum model with a PD base and mixed scale laws.

    Scale laws rotate through Bernoulli at 1/gamma scaling, plain 0/1
    inclusion, a two-point law bracketing 1, and a three-point law, so the
    identity checks cover more than the subsampling special case.
    """
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(2, max_n + 1))
    lam = float(rng.uniform(0.5, 2.0))
    comps = []
    for _ in range(n):
        z = rng.standard_normal(d)
        Z = np.outer(z, z)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            g = float(rng.uniform(0.2, 0.9))
            comps.append(Component(Z, (0.0, 1.0 / g), (1.0 - g, g)))
        elif kind == 1:
            g = float(rng.uniform(0.2, 0.9))
            comps.append(Component(Z, (0.0, 1.0), (1.0 - g, g)))
        elif kind == 2:
            comps.append(Component(Z, (0.5, 1.5), (0.5, 0.5)))
        else:
            p = rng.uniform(0.1, 1.0, size=3)
            p = p / p.sum()
            comps.append(Component(Z, (0.0, 1.0, 2.0), tuple(p)))
    return RandomRankOneSum(components=tuple(comps), base=lam * np.eye(d))


def identity_suite(models: int = 50, max_n: int = 8, max_d: int = 3, seed: int = 0) -> IdentityReport:
    """Exercise the three expectation identities over random models.

    Every model has a PD base, so the weighted-inverse ratio is defined on
    all outcomes.  The fixed hand-checked instance participates in the
    determinant and adjugate maxima; the rank-two counterexample is
    reported separately since its whole point is to violate the identity.
    ``max_d`` and ``max_n`` bound each model's dimension and component
    count; both are checked before any model is drawn.  ``max_n`` is at
    most 12, so that the 3^max_n outcomes of a model whose components all
    draw three-point laws fit the enumeration cap.
    """
    if models < 1:
        raise ValueError(f"need at least one model, got {models}")
    if max_d < 1:
        raise ValueError(f"max_d must be at least 1, got {max_d}")
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    # a model of max_n three-point laws has 3**max_n outcomes
    if 3**max_n > _MAX_OUTCOMES:
        raise EnumerationBudgetExceeded(
            f"max_n {max_n} allows 3^{max_n} outcomes per model, over the "
            f"enumeration cap of {_MAX_OUTCOMES}"
        )
    rng = np.random.default_rng(seed)
    dev_det = 0.0
    dev_adj = 0.0
    dev_winv = 0.0
    for _ in range(models):
        model = random_model(rng, max_n=max_n, max_d=max_d)
        mean = model.mean()
        dev_det = max(dev_det, _rel_dev(expect_det(model), linalg.det_cofactor(mean)))
        dev_adj = max(dev_adj, _rel_dev(expect_adjugate(model), linalg.adjugate_cofactor(mean)))
        dev_winv = max(
            dev_winv, _rel_dev(expect_weighted_inverse(model), np.linalg.inv(mean))
        )
    hand = hand_checked_instance()
    hand_det, hand_adj = expect_det(hand), expect_adjugate(hand)
    hand_dev = max(
        abs(hand_det - 0.75), _rel_dev(hand_adj, np.array([[1.0, -0.5], [-0.5, 1.0]]))
    )
    dev_det = max(dev_det, abs(hand_det - linalg.det_cofactor(hand.mean())))
    dev_adj = max(dev_adj, _rel_dev(hand_adj, linalg.adjugate_cofactor(hand.mean())))
    counter = rank_two_counterexample()
    gap = abs(expect_det(counter) - linalg.det_cofactor(counter.mean()))
    return IdentityReport(
        models=models,
        max_dev_det=dev_det,
        max_dev_adjugate=dev_adj,
        max_dev_weighted_inverse=dev_winv,
        hand_instance_dev=hand_dev,
        counterexample_gap=gap,
    )


def hessian_sketch_model(obj: Objective, w: np.ndarray, k: int) -> RandomRankOneSum:
    """The subsampled-Hessian law of a small objective as an enumerable model.

    The local Hessian is (1/k) sum_i b_i l_i'' x_i x_i^T + lam I with
    b_i ~ Bernoulli(k/n), which is a rank-one sum with scales in
    {0, 1/k} and base lam I.
    """
    data = obj.data
    w = np.asarray(w, dtype=float)
    curv = obj.loss.d2value(data.X @ w, data.y)
    mats = [curv[i] * np.outer(data.X[i], data.X[i]) for i in range(data.n)]
    return RandomRankOneSum.bernoulli(
        mats, gamma=k / data.n, base=obj.lam * np.eye(data.d), scale=1.0 / k
    )


def expect_uniform_newton_bias(obj: Objective, w: np.ndarray, k: int) -> np.ndarray:
    """E[p_hat] - p over all 2^n subsample masks, exactly.

    ``p_hat`` inverts the subsampled Hessian against the exact gradient,
    so the bias is (E[H_hat^{-1}] - H^{-1}) grad.  It is nonzero for any
    genuinely random mask because inversion is not linear.
    """
    data = obj.data
    if data.n > _MAX_COMPONENTS:
        raise EnumerationBudgetExceeded(
            f"{data.n} rows exceed the enumeration cap of {_MAX_COMPONENTS}"
        )
    w = np.asarray(w, dtype=float)
    g = obj.gradient(w)
    p = obj.exact_newton_step(w)
    gamma = k / data.n
    mean_step = np.zeros(data.d)
    for bits in itertools.product((False, True), repeat=data.n):
        include = np.array(bits)
        prob = float(np.prod(np.where(include, gamma, 1.0 - gamma)))
        H_hat = local_hessian(obj, w, SketchMask(include=include, k=k, n=data.n))
        mean_step += prob * np.linalg.solve(H_hat, g)
    return mean_step - p
