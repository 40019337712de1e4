"""Bernoulli row subsampling with schedule-independent random streams.

Each simulated machine draws its inclusion mask from a Philox stream keyed
by the triple (master_seed, trial, machine).  The stream is a pure function
of that triple: no global state, no dependence on execution order, so a
sweep gives bit-identical masks whatever order its machines and trials
run in.  The Philox key is numpy's
``SeedSequence(entropy=seed, spawn_key=(trial, machine)).generate_state(2,
np.uint64)``.

The module holds the sampling, the one loop over a fleet's machines and
the sweep check.  :func:`draw_mask` keys a fresh Philox through numpy's own
``SeedSequence``, the public route that replays one machine.
:func:`local_fleet` draws, gathers, builds and decomposes every machine of
a Newton or precision fleet, in stacks of about 2 MiB, and names the
(seed, trial, machine) triple of a machine that fails.  It draws the same
masks without a generator per machine: the machine index is the last word
``SeedSequence`` mixes, so the pool that (seed, trial) leave is numpy's
own, read once per fleet from ``SeedSequence(entropy=seed,
spawn_key=(trial,))``, the keys of a whole stack follow from it in a few
vectorized uint32 operations, and one Philox is re-keyed for each machine.
The mask is one compare of the Philox's raw words against
:func:`_threshold`, which keeps exactly the rows whose ``Generator.random``
value falls below the rate.  Each machine's matrix is made by the calls of
:func:`local_hessian` and :func:`local_covariance`, with
:func:`detavg.objective.gram_tail` run once per stack, so a fleet's machine
is bit-identical to the public route, with no ``SeedSpec``, ``SketchMask``
or ``Generator`` built per machine; the caller only decomposes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataio import MAX_ENTRIES
from .errors import InvalidSampleSize, NonFiniteResult, NotPositiveDefinite
from .objective import Dataset, Objective, gram, gram_tail, hessian_rows

# Bytes of matrices stacked per decomposition call by the fleets.  A
# decomposition's numpy calls cost about the same for 31 machines as for 62,
# so at d=65 a 2 MiB stack (62 machines) pays them about half as often as a
# 1 MiB one, for about 2 MB more peak memory.
_STACK_BYTES = 2 << 20

# numpy's SeedSequence: pool size in 32-bit words and the constants of its
# entropy hash (INIT_A, MULT_A), its pool mix (MIX_MULT_L, MIX_MULT_R) and
# its output hash (INIT_B, MULT_B).
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


@dataclass(frozen=True)
class SeedSpec:
    """Key of one random stream: master seed plus trial and machine indices."""

    master_seed: int
    trial: int = 0
    machine: int = 0


def _include(n: int, rate: float, seed: int, trial: int, machine: int) -> np.ndarray:
    """Inclusion mask over n rows, each kept with probability ``rate``, from
    the Philox stream of (seed, trial, machine), keyed through numpy's own
    ``SeedSequence``: the kernel of :func:`draw_mask`, and the reference that
    every mask of :func:`local_fleet` equals bit for bit."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial, machine))
    return np.random.Generator(np.random.Philox(seed=seq)).random(n) < rate


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """``SeedSequence``'s word hash: the hashed word and the next constant.
    Its entropy hash with ``_MULT_A``, its output hash with ``_MULT_B``.
    ``value`` is a 32-bit int or a uint32 array, which wraps alike."""
    next_const = hash_const * mult & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x: int, y):
    """``SeedSequence``'s mix of a hashed word ``y`` (int or uint32 array)
    into pool word ``x``."""
    result = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _stream_prefix(seed: int, trial: int) -> tuple[list[int], int]:
    """Pool and hash constant of ``SeedSequence(entropy=seed, spawn_key=(trial,
    t))`` just before it mixes in its last entropy word, the machine index t.

    The entropy is seed's words padded with zeros to the pool size, then
    trial's words, then t's one word, so everything up to t is the same for
    every machine of a fleet, and the pool is numpy's own for spawn key
    (trial,).  Mixing L >= 4 words runs the entropy hash 4 L times, each
    multiplying its constant by ``_MULT_A``.  TypeError for a seed or trial
    that is not an integer; ValueError for a negative one, as
    ``SeedSequence`` raises.
    """
    # before SeedSequence, which reads OS entropy for a seed of None
    seed, trial = operator.index(seed), operator.index(trial)
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(trial,)).pool.tolist()
    words = max(_POOL, -(-seed.bit_length() // 32)) + max(1, -(-trial.bit_length() // 32))
    return pool, _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32


def _stream_keys(prefix: tuple[list[int], int], start: int, stop: int) -> np.ndarray:
    """Philox keys (stop - start, 2) of machines start..stop-1, row t - start
    equal to ``SeedSequence(entropy=seed, spawn_key=(trial, t))
    .generate_state(2, np.uint64)`` for the ``prefix`` of (seed, trial).

    Each pool word mixes in the hashed machine index and goes through the
    output hash, by the scalar formulas run on a uint32 array of machine
    indices.  A machine index is one 32-bit word, since a fleet holds at
    most ``MAX_ENTRIES`` < 2^32 machines.
    """
    pool, hash_const = prefix
    machines = np.arange(start, stop, dtype=np.uint32)
    words = np.empty((stop - start, _POOL), dtype=np.uint32)
    out_const = _INIT_B
    for i, word in enumerate(pool):
        value, hash_const = _hashmix(machines, hash_const)
        words[:, i], out_const = _hashmix(_mix(word, value), out_const, _MULT_B)
    # generate_state views its four words as two little-endian uint64
    return words.view(np.uint64)


def _threshold(rate: float) -> int:
    """Largest raw Philox word r that ``Generator.random`` maps below ``rate``.

    ``random`` maps r to (r >> 11) 2^-53, so ``random() < rate`` is exactly
    ``(r >> 11) < C`` with C = ceil(rate 2^53), that is r <= C 2^11 - 1; for
    a rate in (0, 1] this is below 2^64, so one uint64 compare decides.
    Exact: the float rate 2^53 is exact and so is its ceiling.
    """
    return math.ceil(math.ldexp(rate, 53)) * 2048 - 1


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
    ridge ``lam * I``.  It weights every row, as a fleet does, then gathers.
    """
    if mask.n != obj.data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {obj.data.n}")
    Z, f = hessian_rows(obj.loss, obj.data.X, np.asarray(w, dtype=float))
    H = gram(np.empty((obj.d, obj.d)), Z.compress(mask.include, axis=0))
    return gram_tail(H, mask.k / f, obj.lam)


def local_covariance(data: Dataset, mask: SketchMask) -> np.ndarray:
    """Subsampled second-moment matrix (1/k) sum_{included} x_i x_i^T."""
    if mask.n != data.n:
        raise ValueError(f"mask over {mask.n} rows, dataset has {data.n}")
    return gram_tail(gram(np.empty((data.d, data.d)), data.X.compress(mask.include, axis=0)),
                     mask.k)


def block_size(width: int, stack_bytes: int = _STACK_BYTES) -> int:
    """Number of items of ``width`` float64 values each that one stack holds.

    About ``stack_bytes`` of them, by default the fleets' ``_STACK_BYTES``.
    A fleet stacks (d, d) matrices, width d * d: the whole fleet at small d,
    while a large-d fleet never holds all m matrices at once.
    """
    return max(1, stack_bytes // (8 * width))


def local_fleet(
    Z: np.ndarray, f: float, ridge: float,
    decompose: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    k: int, m: int, seed: int, trial: int,
) -> tuple[np.ndarray, ...]:
    """Decomposed local matrices of machines 0..m-1 of one fleet.

    ``Z`` (n, d) and ``f`` are the weighted rows and factor of
    :func:`objective.hessian_rows`, or ``(data.X, 1.0)`` for a covariance.
    Machine t draws its inclusion mask over the n rows from the stream keyed
    by (seed, trial, t), bit-identical to :func:`draw_mask`'s, and its local
    matrix is ``(1/k) f Z_t^T Z_t + ridge I`` over its rows Z_t (a scalar
    ridge, 0.0 for a covariance), made by the calls of :func:`local_hessian`
    and :func:`local_covariance`, so it is bit-identical to theirs.
    ``decompose(stack)`` maps a stack of at most :func:`block_size` finished
    matrices to a tuple of arrays with one row per matrix; it may overwrite
    the stack, since each stack's outputs are copied out before the next is
    built.  Returns those arrays for the whole fleet, row t for machine t,
    so the first m machines are the same whatever m is.

    Raises InvalidSampleSize unless 1 <= k <= n, and ValueError naming m,
    before the arrays are allocated, if they would hold more than
    ``MAX_ENTRIES`` values (an m above it is refused before any draw).  A
    ``NotPositiveDefinite`` from ``decompose``, or an output row that is not
    finite (``NonFiniteResult``), names the (seed, trial, machine) triple
    that replays the machine; an overflow on the way there raises no warning.
    A negative seed or trial raises ValueError before any draw, as
    ``SeedSequence`` does.
    """
    def where(t: int) -> str:
        return f"local matrix of (seed, trial, machine) = ({seed}, {trial}, {t})"

    def refuse_above_cap(entries: int) -> None:
        if entries > MAX_ENTRIES:
            raise ValueError(f"a fleet of m={m} machines would store at least {entries} "
                             f"values, more than {MAX_ENTRIES}")

    n, d = Z.shape
    refuse_above_cap(m)
    threshold = _threshold(_rate(n, k))
    prefix = _stream_prefix(seed, trial)
    block = block_size(d * d)
    stack = np.empty((min(block, m), d, d))
    include = np.empty(n, dtype=bool)
    philox = np.random.Philox(seed=0)  # no OS entropy read; every key is replaced
    # counter 0 and an empty buffer, as a new Philox starts, held in Python
    # lists, which the state setter reads in half the time of numpy arrays
    state = philox.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    fleet = ()
    with np.errstate(all="ignore"):  # every output row is checked below
        for start in range(0, m, block):
            stop = min(start + block, m)
            for key, out in zip(_stream_keys(prefix, start, stop).tolist(), stack):
                state["state"]["key"] = key
                philox.state = state
                np.less_equal(philox.random_raw(n), threshold, out=include)
                gram(out, Z.compress(include, axis=0))
            try:
                outputs = decompose(gram_tail(stack[:stop - start], k / f, ridge))
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
