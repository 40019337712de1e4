"""Bernoulli row subsampling with schedule-independent random streams.

Each simulated machine draws its inclusion mask from a Philox stream keyed
by the triple (master_seed, trial, machine).  The stream is a pure function
of that triple: no global state, no dependence on execution order, so a
sweep gives bit-identical masks whatever order its machines and trials
run in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidSampleSize
from .objective import Dataset, Objective


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
