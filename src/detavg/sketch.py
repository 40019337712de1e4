"""Bernoulli row subsampling with schedule-independent random streams.

Each simulated machine draws its inclusion mask from a Philox stream keyed
by the triple (master_seed, trial, machine).  The stream is a pure function
of that triple: no global state, no dependence on execution order, so a
sweep gives bit-identical masks whatever order its machines and trials
run in.

The module holds the sampling, the one loop over a fleet's machines and
the sweep check.  :func:`local_fleet` draws, builds and decomposes every
machine of a Newton or precision fleet, in stacks of about 1 MiB, and
names the (seed, trial, machine) triple of a machine that fails.  It draws
with :func:`draw_mask`'s mask kernel and builds with the Gram kernels of
:mod:`detavg.objective` on each mask's rows, as :func:`local_hessian` and
:func:`local_covariance` do, so a fleet's machine is bit-identical to the
public route, with no ``SeedSpec`` or ``SketchMask`` built per machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataio import MAX_ENTRIES
from .errors import InvalidSampleSize, NonFiniteResult, NotPositiveDefinite
from .objective import Dataset, Objective, covariance_into, hessian_into

# Bytes of matrices stacked per decomposition call by the fleets.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class SeedSpec:
    """Key of one random stream: master seed plus trial and machine indices."""

    master_seed: int
    trial: int = 0
    machine: int = 0


def _include(n: int, rate: float, seed: int, trial: int, machine: int) -> np.ndarray:
    """Inclusion mask over n rows, each kept with probability ``rate``, from
    the Philox stream of (seed, trial, machine): the kernel of
    :func:`draw_mask` and :func:`local_fleet`."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial, machine))
    return np.random.Generator(np.random.Philox(seed=seq)).random(n) < rate


@dataclass(frozen=True)
class SketchMask:
    """Outcome of one Bernoulli(k/n) sampling pass over n rows.

    ``k`` is the expected sample size; the realized count ``include.sum()``
    fluctuates around it and may be zero.
    """

    include: np.ndarray
    k: int
    n: int

    def __post_init__(self):
        include = np.asarray(self.include, dtype=bool)
        if include.shape != (self.n,):
            raise ValueError(f"mask shape {include.shape} does not match n={self.n}")
        object.__setattr__(self, "include", include)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.include))


def draw_mask(n: int, k: int, seed: SeedSpec) -> SketchMask:
    """Draw an independent Bernoulli(k/n) inclusion mask over n rows.

    Parameters
    ----------
    n : int
        Number of rows available.
    k : int
        Expected sample size; each row is included with probability k/n.
    seed : SeedSpec
        Stream key; the same triple always yields the same mask.

    Raises
    ------
    InvalidSampleSize
        If ``k <= 0`` or ``k > n``.
    """
    include = _include(n, _rate(n, k), seed.master_seed, seed.trial, seed.machine)
    return SketchMask(include=include, k=k, n=n)


def _rate(n: int, k: int) -> float:
    """Inclusion probability k/n, or InvalidSampleSize unless 1 <= k <= n."""
    if k <= 0 or k > n:
        raise InvalidSampleSize(f"need 1 <= k <= n, got k={k}, n={n}")
    return k / n


def local_hessian(obj: Objective, w: np.ndarray, mask: SketchMask) -> np.ndarray:
    """Subsampled Hessian (1/k) sum_{included} l_i''(w @ x_i) x_i x_i^T + lam I.

    The 1/k scaling uses the expected sample size, which makes the estimate
    unbiased for the full Hessian; an empty mask therefore yields the bare
    ridge ``lam * I``.
    """
    if mask.n != obj.data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {obj.data.n}")
    include = mask.include
    out = np.empty((obj.d, obj.d))
    hessian_into(out, obj.loss, obj.data.X.compress(include, axis=0),
                 obj.data.y.compress(include), np.asarray(w, dtype=float), mask.k,
                 obj.lam * np.eye(obj.d))
    return out


def local_covariance(data: Dataset, mask: SketchMask) -> np.ndarray:
    """Subsampled second-moment matrix (1/k) sum_{included} x_i x_i^T."""
    if mask.n != data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {data.n}")
    out = np.empty((data.d, data.d))
    covariance_into(out, data.X.compress(mask.include, axis=0), mask.k)
    return out


def block_size(width: int) -> int:
    """Number of items of ``width`` float64 values each that one stack holds.

    About ``_STACK_BYTES`` of them.  A fleet stacks (d, d) matrices, width
    d * d: the whole fleet at small d, while a large-d fleet never holds all
    m matrices at once.
    """
    return max(1, _STACK_BYTES // (8 * width))


def local_fleet(
    build: Callable[[np.ndarray, np.ndarray], None],
    decompose: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    n: int, d: int, k: int, m: int, seed: int, trial: int,
) -> tuple[np.ndarray, ...]:
    """Decomposed local matrices of machines 0..m-1 of one fleet.

    Machine t draws its inclusion mask over n rows from the stream keyed by
    (seed, trial, t), as :func:`draw_mask` does, and ``build(include, out)``
    writes its (d, d) matrix into ``out``.  ``decompose(stack)`` maps a
    stack of :func:`block_size` such matrices to a tuple of arrays with one
    row per matrix.  Returns those arrays for the whole fleet, row t for
    machine t, so the first m machines are the same whatever m is.

    Raises InvalidSampleSize unless 1 <= k <= n, and ValueError naming m,
    before the arrays are allocated, if they would hold more than
    ``MAX_ENTRIES`` values (an m above it is refused before any draw).  A
    ``NotPositiveDefinite`` from ``decompose``, or an output row that is not
    finite (``NonFiniteResult``), names the (seed, trial, machine) triple
    that replays the machine; an overflow on the way there raises no warning.
    """
    def where(t: int) -> str:
        return f"local matrix of (seed, trial, machine) = ({seed}, {trial}, {t})"

    def refuse_above_cap(entries: int) -> None:
        if entries > MAX_ENTRIES:
            raise ValueError(f"a fleet of m={m} machines would store at least {entries} "
                             f"values, more than {MAX_ENTRIES}")

    refuse_above_cap(m)
    rate = _rate(n, k)
    block = block_size(d * d)
    stack = np.empty((min(block, m), d, d))
    fleet = ()
    with np.errstate(all="ignore"):  # every output row is checked below
        for start in range(0, m, block):
            stop = min(start + block, m)
            for t in range(start, stop):
                build(_include(n, rate, seed, trial, t), stack[t - start])
            try:
                outputs = decompose(stack[:stop - start])
            except NotPositiveDefinite as exc:
                t = start + exc.index
                raise NotPositiveDefinite(f"{where(t)} is not positive definite",
                                          index=t) from exc
            if not fleet:
                refuse_above_cap(m * sum(out[0].size for out in outputs))
                fleet = tuple(np.empty((m, *out.shape[1:])) for out in outputs)
            finite = np.ones(stop - start, dtype=bool)
            for whole, out in zip(fleet, outputs):
                whole[start:stop] = out
                finite &= np.isfinite(out.reshape(stop - start, -1)).all(axis=1)
            if not finite.all():
                raise NonFiniteResult(f"{where(start + np.argmin(finite))} has a non-finite result")
    return fleet


def check_sweep(m_list: Sequence[int], trials: int) -> None:
    """Raise ValueError unless the machine counts of a sweep are positive and
    strictly increasing and it has at least one trial."""
    if len(m_list) == 0 or any(m < 1 for m in m_list):
        raise ValueError(f"machine counts must be positive, got {m_list}")
    if sorted(set(m_list)) != list(m_list):
        raise ValueError(f"m_list must be strictly increasing, got {m_list}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
