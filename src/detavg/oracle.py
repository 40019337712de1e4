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

A model is enumerated in chunks of about a mebibyte, each of probabilities
``p`` (b,) and a stack ``A = B + S @ Z`` (b, d, d), with ``S`` the chunk's
rows of the product grid of supports.  ``E[f(A)]`` is ``p @ f(A)`` summed
over the model's chunks.  One pass serves many models: the chunks of all
models of one dimension d are concatenated once into stacks of at most
``block_size(d * d, _CHUNK_BYTES)`` outcomes, each ``f`` runs once per
stack, and each chunk's ``p @ f(A)`` is one ``np.einsum`` of ``p`` with its
own rows of the stack, whose order of summation no BLAS thread count moves.
``f`` acts on every slice on its own, so the sums are bit-identical to a
pass over each model alone.

Everything here is exponential in the number of components and exists to
check the fast estimators, not to be one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import EnumerationBudgetExceeded
from .objective import Objective
from .sketch import SketchMask, block_size, local_hessian

_MAX_COMPONENTS = 20
# Bytes of outcome matrices per chunk and per stack of the enumeration, its
# own budget and not the fleets': a chunk's length sets the summation order
# of its product, and so the bits of every expectation.
_CHUNK_BYTES = 1 << 20
_MAX_OUTCOMES = 1 << 20


@dataclass(frozen=True)
class Component:
    """One term s_i Z_i: a fixed matrix and the finite law of its scale."""

    matrix: np.ndarray
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        values = tuple(map(float, self.values))
        probs = tuple(map(float, self.probs))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"component matrix must be square, got {matrix.shape}")
        if np.count_nonzero(np.isfinite(matrix)) < matrix.size:
            raise ValueError("component matrix must be finite")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"support values must be finite, got {values}")
        if not all(map(math.isfinite, probs)):
            raise ValueError(f"probabilities must be finite, got {probs}")
        if len(values) != len(probs) or len(values) == 0:
            raise ValueError("support values and probabilities must align and be nonempty")
        if min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-12:
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
        if np.count_nonzero(np.isfinite(base)) < base.size:
            raise ValueError("base must be finite")
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
        return math.prod(len(c.values) for c in self.components)

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

    def outcome_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(p, A)``: probabilities (b,) and matrices (b, d, d) of the
        outcomes, in :func:`itertools.product` order of the supports, with
        ``block_size(max(n, d * d), _CHUNK_BYTES)`` outcomes per chunk, so
        neither the (N, n) grid of scales nor the (N, d, d) stack is ever
        built whole."""
        if len(self.components) > _MAX_COMPONENTS:
            raise EnumerationBudgetExceeded(
                f"{len(self.components)} components exceed the cap of {_MAX_COMPONENTS}"
            )
        d, total = self.dim, self.n_outcomes
        if total > _MAX_OUTCOMES:
            raise EnumerationBudgetExceeded(f"{total} outcomes exceed the cap of {_MAX_OUTCOMES}")
        sizes = tuple(len(c.values) for c in self.components)
        laws = [(np.array(c.values), np.array(c.probs)) for c in self.components]
        Z = np.array([c.matrix.ravel() for c in self.components])
        chunk = block_size(max(len(sizes), d * d), _CHUNK_BYTES)
        for start in range(0, total, chunk):
            digits = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
            p = np.ones(len(digits[0]))
            S = np.empty((len(p), len(sizes)))
            for j, ((values, probs), digit) in enumerate(zip(laws, digits)):
                p *= probs[digit]
                S[:, j] = values[digit]
            yield p, self.base + (S @ Z).reshape(-1, d, d)


def _expect_each(
    models: Sequence[RandomRankOneSum], *fs: Callable[[np.ndarray], np.ndarray]
) -> list:
    """``[[E[f(A)] for f in fs] for model in models]`` in one pass.

    ``f`` maps a stack (b, d, d) to (b, ...) slice by slice.  The chunks of
    :meth:`RandomRankOneSum.outcome_blocks` queue up per dimension d, and a
    queue is concatenated into one stack when the next chunk would take it
    past ``block_size(d * d, _CHUNK_BYTES)`` outcomes, and at the end, and
    every ``f`` runs on that stack.  A chunk holds at most that many
    outcomes, so none is split.  Each chunk still gets its own product, in
    the model's chunk order: one ``np.einsum`` of ``p`` with its rows of
    ``f``'s value, which keeps every sum bit-identical to enumerating its
    model alone, at any BLAS thread count.
    """
    totals = [[0.0] * len(fs) for _ in models]
    queues: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    held: dict[int, int] = {}

    def evaluate(queue):
        stack = np.concatenate([A for _, _, A in queue])
        values = [f(stack) for f in fs]
        start = 0
        for owner, p, _ in queue:
            stop = start + len(p)
            row = totals[owner]
            for i, value in enumerate(values):
                row[i] = row[i] + np.einsum("b,b...->...", p, value[start:stop])
            start = stop
        queue.clear()

    for owner, model in enumerate(models):
        d = model.dim
        queue = queues.setdefault(d, [])
        for p, A in model.outcome_blocks():
            if held.get(d, 0) + len(p) > block_size(d * d, _CHUNK_BYTES):
                evaluate(queue)
                held[d] = 0
            queue.append((owner, p, A))
            held[d] = held.get(d, 0) + len(p)
    for queue in queues.values():
        if queue:
            evaluate(queue)
    return totals


def _expect(model: RandomRankOneSum, *fs: Callable[[np.ndarray], np.ndarray]) -> list:
    """``[E[f(A)] for f in fs]`` for one model."""
    return _expect_each([model], *fs)[0]


def _det_times_inverse(A: np.ndarray) -> np.ndarray:
    return linalg.det_cofactor(A)[:, None, None] * np.linalg.inv(A)


def expect_det(model: RandomRankOneSum) -> float:
    """E[det A] by full enumeration, determinants by cofactor expansion."""
    return float(_expect(model, linalg.det_cofactor)[0])


def expect_adjugate(model: RandomRankOneSum) -> np.ndarray:
    """E[adj A] by full enumeration, adjugates by cofactor minors."""
    return _expect(model, linalg.adjugate_cofactor)[0]


def expect_inverse(model: RandomRankOneSum) -> np.ndarray:
    """Unweighted E[A^{-1}]; the quantity plain averaging converges to.

    Requires A invertible on every outcome (guaranteed when the base is
    positive definite and all scales and components are positive
    semidefinite).
    """
    return _expect(model, np.linalg.inv)[0]


def expect_weighted_inverse(model: RandomRankOneSum) -> np.ndarray:
    """E[det(A) A^{-1}] / E[det A] by full enumeration.

    The determinant factor comes from the cofactor expansion while the
    inverse is a separate LAPACK solve, so agreement of this ratio with
    ``inv(E[A])`` is a genuine cross-check rather than an algebraic
    restatement of :func:`expect_adjugate`.
    """
    num, den = _expect(model, _det_times_inverse, linalg.det_cofactor)
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


def _max_rel_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest ``|l - r|_max / max(1, |r|_max)`` over the pairs of two stacks
    of one shape, a stack of one included: ``abs`` and ``max`` are exact and
    each pair's quotient is the same division, so the value is the same
    float as folding each pair alone."""
    k = len(rhs)
    spread = np.abs(lhs - rhs).reshape(k, -1).max(axis=1)
    scale = np.maximum(1.0, np.abs(rhs).reshape(k, -1).max(axis=1))
    return float((spread / scale).max())


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

    The rng calls are made one by one: d, n and the base scale, then per
    component its vector z, its law's kind and the law's parameters.  Every
    report depends on that order, so a draw is neither batched nor moved.
    The n matrices z z^T are built at once afterwards, with the products
    ``np.outer`` takes, and each goes through :class:`Component`'s checks.
    """
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(2, max_n + 1))
    lam = float(rng.uniform(0.5, 2.0))
    z = np.empty((n, d))
    laws = []
    for i in range(n):
        z[i] = rng.standard_normal(d)
        kind = int(rng.integers(0, 4))
        if kind < 2:
            g = float(rng.uniform(0.2, 0.9))
            laws.append(((0.0, 1.0 / g if kind == 0 else 1.0), (1.0 - g, g)))
        elif kind == 2:
            laws.append(((0.5, 1.5), (0.5, 0.5)))
        else:
            p = rng.uniform(0.1, 1.0, size=3)
            laws.append(((0.0, 1.0, 2.0), tuple(p / p.sum())))
    Z = z[:, :, None] * z[:, None, :]
    comps = tuple(Component(M, values, probs) for M, (values, probs) in zip(Z, laws))
    return RandomRankOneSum(components=comps, base=lam * np.eye(d))


def identity_suite(models: int = 50, max_n: int = 8, max_d: int = 3, seed: int = 0) -> IdentityReport:
    """Exercise the three expectation identities over random models.

    Every model has a PD base, so the weighted-inverse ratio is defined on
    all outcomes.  The fixed hand-checked instance participates in the
    determinant and adjugate maxima; the rank-two counterexample is
    reported separately since its whole point is to violate the identity.
    Each random model is enumerated once for all three identities.

    Models are drawn from ``default_rng(seed)`` in order, in groups that
    close once they hold ``block_size(max_d * max_d, _CHUNK_BYTES)``
    outcomes, and each group is evaluated, one :func:`_expect_each` pass
    and the det, adjugate and inverse of each dimension's stack of means,
    before the next is drawn, so memory stays bounded whatever ``models``
    is.  The deviations
    are folded per stack of one dimension: ``|lhs - rhs|`` max and
    ``max(1, |rhs|)`` max per model, their quotient, and its max over the
    models.  ``abs`` and ``max`` are exact and each quotient is the same
    division, so every deviation is bit-identical to evaluating the models
    one at a time.

    ``max_d`` and ``max_n`` bound each model's dimension and component
    count; both are checked before any model is drawn.  ``max_d`` is at
    most 5, the largest dimension the O(d!) cofactor expansion serves, and
    ``max_n`` at most 12, so that the 3^max_n outcomes of a model whose
    components all draw three-point laws fit the enumeration cap.
    """
    if models < 1:
        raise ValueError(f"need at least one model, got {models}")
    if not 1 <= max_d <= linalg._COFACTOR_MAX_DIM:
        raise ValueError(f"max_d must be in 1..{linalg._COFACTOR_MAX_DIM}, got {max_d}")
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    # a model of max_n three-point laws has 3**max_n outcomes
    if 3**max_n > _MAX_OUTCOMES:
        raise EnumerationBudgetExceeded(
            f"max_n {max_n} allows 3^{max_n} outcomes per model, over the "
            f"enumeration cap of {_MAX_OUTCOMES}"
        )
    rng = np.random.default_rng(seed)
    cap = block_size(max_d * max_d, _CHUNK_BYTES)
    dev_det = dev_adj = dev_winv = 0.0
    drawn = 0
    while drawn < models:
        group: list[RandomRankOneSum] = []
        outcomes = 0
        while drawn < models and outcomes < cap:
            group.append(random_model(rng, max_n=max_n, max_d=max_d))
            outcomes += group[-1].n_outcomes
            drawn += 1
        expectations = _expect_each(
            group, linalg.det_cofactor, linalg.adjugate_cofactor, _det_times_inverse
        )
        for d in {model.dim for model in group}:
            at = [i for i, model in enumerate(group) if model.dim == d]
            mean = np.stack([group[i].mean() for i in at])
            e_det, e_adj, e_det_inv = (np.stack(e) for e in zip(*(expectations[i] for i in at)))
            dev_det = max(dev_det, _max_rel_dev(e_det, linalg.det_cofactor(mean)))
            dev_adj = max(dev_adj, _max_rel_dev(e_adj, linalg.adjugate_cofactor(mean)))
            dev_winv = max(dev_winv, _max_rel_dev(e_det_inv / e_det[:, None, None],
                                                  np.linalg.inv(mean)))
    hand = hand_checked_instance()
    hand_det, hand_adj = (np.stack([e]) for e in _expect(
        hand, linalg.det_cofactor, linalg.adjugate_cofactor))
    hand_mean = np.stack([hand.mean()])
    hand_dev = max(_max_rel_dev(hand_det, np.array([0.75])),
                   _max_rel_dev(hand_adj, np.array([[[1.0, -0.5], [-0.5, 1.0]]])))
    dev_det = max(dev_det, _max_rel_dev(hand_det, linalg.det_cofactor(hand_mean)))
    dev_adj = max(dev_adj, _max_rel_dev(hand_adj, linalg.adjugate_cofactor(hand_mean)))
    counter = rank_two_counterexample()
    gap = abs(expect_det(counter) - linalg.det_cofactor(counter.mean()))
    return IdentityReport(models, dev_det, dev_adj, dev_winv, hand_dev, gap)


def hessian_sketch_model(obj: Objective, w: np.ndarray, k: int) -> RandomRankOneSum:
    """The subsampled-Hessian law of a small objective as an enumerable model.

    The local Hessian is (1/k) sum_i b_i l_i'' x_i x_i^T + lam I with
    b_i ~ Bernoulli(k/n), which is a rank-one sum with scales in
    {0, 1/k} and base lam I.
    """
    data = obj.data
    w = np.asarray(w, dtype=float)
    curv = obj.loss.d2value(data.X @ w)
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
    p = linalg.solve_psd(obj.hessian(w), g)
    gamma = k / data.n
    mean_step = np.zeros(data.d)
    for bits in itertools.product((False, True), repeat=data.n):
        include = np.array(bits)
        prob = float(np.prod(np.where(include, gamma, 1.0 - gamma)))
        H_hat = local_hessian(obj, w, SketchMask(include=include, k=k, n=data.n))
        mean_step += prob * np.linalg.solve(H_hat, g)
    return mean_step - p
