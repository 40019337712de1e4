"""Bernoulli row subsampling with schedule-independent random streams.

Each simulated machine draws its inclusion mask from a Philox stream keyed
by the triple (master_seed, trial, machine).  The stream is a pure function
of that triple: no global state, no dependence on execution order, so a
sweep gives bit-identical masks whatever order its machines and trials
run in.

:func:`local_stacks` builds a whole fleet from those streams, one stack of
local matrices of about 1 MiB at a time, for the Newton and the
precision sweeps alike; the sweeps only decompose the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import InvalidSampleSize, NotPositiveDefinite
from .objective import Dataset, Objective

# Bytes of matrices stacked per decomposition call by the fleets.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class SeedSpec:
    """Key of one random stream: master seed plus trial and machine indices."""

    master_seed: int
    trial: int = 0
    machine: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.trial, self.machine)
        )
        return np.random.Generator(np.random.Philox(seed=seq))


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
        return int(self.include.sum())


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
    if k <= 0 or k > n:
        raise InvalidSampleSize(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = seed.generator()
    include = rng.random(n) < (k / n)
    return SketchMask(include=include, k=k, n=n)


def local_hessian(obj: Objective, w: np.ndarray, mask: SketchMask) -> np.ndarray:
    """Subsampled Hessian (1/k) sum_{included} l_i''(w @ x_i) x_i x_i^T + lam I.

    The 1/k scaling uses the expected sample size, which makes the estimate
    unbiased for the full Hessian; an empty mask therefore yields the bare
    ridge ``lam * I``.
    """
    if mask.n != obj.data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {obj.data.n}")
    d = obj.data.d
    ridge = obj.lam * np.eye(d)
    if mask.count == 0:
        return ridge
    X = obj.data.X[mask.include]
    z = X @ np.asarray(w, dtype=float)
    curv = obj.loss.d2value(z, obj.data.y[mask.include])
    H = (X.T * curv) @ X / mask.k
    return linalg.symmetrize(H) + ridge


def local_covariance(data: Dataset, mask: SketchMask) -> np.ndarray:
    """Subsampled second-moment matrix (1/k) sum_{included} x_i x_i^T."""
    if mask.n != data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {data.n}")
    if mask.count == 0:
        return np.zeros((data.d, data.d))
    X = data.X[mask.include]
    return linalg.symmetrize(X.T @ X / mask.k)


def block_size(d: int) -> int:
    """Number of (d, d) matrices a fleet stacks per decomposition call.

    About ``_STACK_BYTES`` of them: the whole fleet at small d, while a
    large-d fleet never holds all m matrices at once.
    """
    return max(1, _STACK_BYTES // (8 * d * d))


def local_stacks(
    build: Callable[[SketchMask], np.ndarray], n: int, d: int, k: int, m: int,
    seed: int, trial: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Local matrices of machines 0..m-1 of one fleet, in stacks.

    Machine t draws its mask over n rows from the stream keyed by
    (seed, trial, t), and ``build(mask)`` returns its (d, d) matrix.  Yields
    ``(start, stack)`` with ``stack[i]`` the matrix of machine ``start + i``,
    :func:`block_size` machines per stack, so the first m machines are the
    same whatever m is.  The stack is one buffer, refilled for the next
    block: read it before asking for the next one.
    """
    block = block_size(d)
    stack = np.empty((min(block, m), d, d))
    for start in range(0, m, block):
        stop = min(start + block, m)
        for t in range(start, stop):
            stack[t - start] = build(draw_mask(n, k, SeedSpec(seed, trial, t)))
        yield start, stack[:stop - start]


def check_sweep(m_list: Sequence[int], trials: int) -> None:
    """Raise ValueError unless the machine counts of a sweep are positive and
    strictly increasing and it has at least one trial."""
    if len(m_list) == 0 or any(m < 1 for m in m_list):
        raise ValueError(f"machine counts must be positive, got {m_list}")
    if sorted(set(m_list)) != list(m_list):
        raise ValueError(f"m_list must be strictly increasing, got {m_list}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")


def machine_failure(
    matrix: str, seed: int, trial: int, machine: int, detail: str = ""
) -> NotPositiveDefinite:
    """The error for a fleet machine whose local matrix is not positive
    definite, naming the (seed, trial, machine) triple that replays it."""
    return NotPositiveDefinite(
        f"{matrix} of (seed, trial, machine) = ({seed}, {trial}, {machine}) "
        f"is not positive definite{detail}", index=int(machine),
    )
