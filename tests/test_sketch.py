"""Subsampling masks: determinism, counts, and estimator unbiasedness."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detavg import linalg
from detavg.dataio import MAX_ENTRIES
from detavg.errors import InvalidSampleSize, NonFiniteResult, NotPositiveDefinite
from detavg import newton, sketch, uq
from detavg.objective import (
    Dataset,
    LossKind,
    Objective,
    gram,
    gram_tail,
    hessian_rows,
)
from detavg.sketch import (
    SeedSpec,
    SketchMask,
    _include,
    _stream_keys,
    _stream_prefix,
    _threshold,
    block_size,
    draw_mask,
    local_covariance,
    local_fleet,
    local_hessian,
)


def small_objective(seed=101, n=40, d=4, lam=0.25):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return Objective(Dataset(X=X, y=y), LossKind.SQUARE, lam=lam)


def test_mask_is_pure_function_of_seed_triple():
    a = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=5))
    b = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=5))
    assert np.array_equal(a.include, b.include)
    # changing any index of the triple changes the stream
    c = draw_mask(1000, 100, SeedSpec(7, trial=3, machine=6))
    d = draw_mask(1000, 100, SeedSpec(7, trial=4, machine=5))
    e = draw_mask(1000, 100, SeedSpec(8, trial=3, machine=5))
    for other in (c, d, e):
        assert not np.array_equal(a.include, other.include)


def test_mask_count_matches_binomial():
    mask = draw_mask(100_000, 1000, SeedSpec(0))
    sigma = np.sqrt(100_000 * 0.01 * 0.99)
    assert abs(mask.count - 1000) <= 3 * sigma


def test_full_rate_includes_everything():
    mask = draw_mask(50, 50, SeedSpec(1))
    assert mask.count == 50


@pytest.mark.parametrize("k", [0, -3, 51])
def test_invalid_sample_size(k):
    with pytest.raises(InvalidSampleSize):
        draw_mask(50, k, SeedSpec(0))


def test_mask_shape_validation():
    with pytest.raises(ValueError):
        SketchMask(include=np.ones(3, dtype=bool), k=1, n=4)


def test_local_hessian_empty_mask_is_ridge():
    obj = small_objective()
    empty = SketchMask(include=np.zeros(40, dtype=bool), k=5, n=40)
    assert np.array_equal(local_hessian(obj, np.zeros(4), empty), 0.25 * np.eye(4))


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 10, 65]), loss=st.sampled_from(list(LossKind)),
       extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(d=4, loss=LossKind.SQUARE, extra=0, seed=0)
@example(d=4, loss=LossKind.LOGISTIC, extra=0, seed=0)
def test_local_hessian_full_mask_is_exact(d, loss, extra, seed):
    # the exact Hessian is the machine that keeps every row at k = n, byte for byte
    rng = np.random.default_rng(seed)
    n = d + 1 + extra
    data = Dataset(X=rng.standard_normal((n, d)), y=(rng.random(n) < 0.5).astype(float))
    obj = Objective(data, loss, lam=0.25)
    full = SketchMask(include=np.ones(n, dtype=bool), k=n, n=n)
    w = rng.standard_normal(d)
    assert local_hessian(obj, w, full).tobytes() == obj.hessian(w).tobytes()


def test_local_hessian_rejects_foreign_mask():
    obj = small_objective()
    with pytest.raises(ValueError):
        local_hessian(obj, np.zeros(4), SketchMask(include=np.zeros(10, dtype=bool), k=2, n=10))


def test_local_covariance_rejects_foreign_mask():
    data = small_objective().data
    with pytest.raises(ValueError, match="mask over 10 rows, dataset has 40"):
        local_covariance(data, SketchMask(include=np.zeros(10, dtype=bool), k=2, n=10))


def test_local_covariance_empty_and_full():
    obj = small_objective()
    data = obj.data
    empty = SketchMask(include=np.zeros(40, dtype=bool), k=5, n=40)
    assert np.array_equal(local_covariance(data, empty), np.zeros((4, 4)))
    full = SketchMask(include=np.ones(40, dtype=bool), k=40, n=40)
    assert np.allclose(local_covariance(data, full), data.X.T @ data.X / 40, atol=1e-14)


def test_subsampled_estimates_are_unbiased():
    # Monte Carlo over 10^4 masks: entrywise mean within 3 standard errors
    obj = small_objective(lam=0.1)
    data = obj.data
    w = np.array([0.5, -0.2, 0.1, 0.8])
    H = obj.hessian(w)
    C = data.X.T @ data.X / data.n
    T = 10_000
    k = 8
    h_sum = np.zeros((4, 4))
    h_sq = np.zeros((4, 4))
    c_sum = np.zeros((4, 4))
    c_sq = np.zeros((4, 4))
    for t in range(T):
        mask = draw_mask(data.n, k, SeedSpec(202, trial=t))
        Hh = local_hessian(obj, w, mask)
        Cc = local_covariance(data, mask)
        h_sum += Hh
        h_sq += Hh**2
        c_sum += Cc
        c_sq += Cc**2
    for total, sq, target in ((h_sum, h_sq, H), (c_sum, c_sq, C)):
        mean = total / T
        var = sq / T - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / T)
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)


D_FLEET = 30
BLOCK_FLEET = block_size(D_FLEET * D_FLEET)


def fleet_with_one_bad_machine(bad, scale):
    """Rows Z = 0, factor 1 and ridge I, so every machine's matrix is I, and
    a decomposition that makes machine ``bad``'s ``scale * I`` and solves by
    :func:`linalg.factor_solve`.  ``built`` lists the machines decomposed."""
    built = []

    def decompose(stack):
        start = len(built)
        built.extend(range(start, start + len(stack)))
        if start <= bad < len(built):
            stack[bad - start] *= scale
        return linalg.factor_solve(stack, np.ones(D_FLEET))

    return (np.zeros((10, D_FLEET)), 1.0, 1.0, decompose), built


@pytest.mark.parametrize("scale, error, text", [
    (-1.0, NotPositiveDefinite, "is not positive definite"),
    (1e-320, NonFiniteResult, "has a non-finite result"),
])
def test_local_fleet_names_the_failing_machine(scale, error, text):
    # the bad machine sits in the second stack, so its index is block-relative there
    bad = BLOCK_FLEET + 2
    fleet, built = fleet_with_one_bad_machine(bad, scale)
    with pytest.raises(error) as info:
        local_fleet(*fleet, 1, BLOCK_FLEET + 5, 7, 3)
    assert f"(seed, trial, machine) = (7, 3, {bad}) {text}" in str(info.value)
    if error is NotPositiveDefinite:
        assert info.value.index == bad
    assert len(built) == BLOCK_FLEET + 5  # the whole second stack was built


def test_local_fleet_refuses_oversized_outputs_before_allocating():
    # m alone is under the cap, so the first stack is drawn and gives the sizes
    fleet, built = fleet_with_one_bad_machine(-1, 1.0)
    m = MAX_ENTRIES // (D_FLEET + 1) + 1  # steps (m, d) plus log-dets (m,)
    with pytest.raises(ValueError, match=f"m={m} machines"):
        local_fleet(*fleet, 1, m, 0, 0)
    assert len(built) == BLOCK_FLEET
    # m above the cap is refused before any draw
    built.clear()
    with pytest.raises(ValueError, match=f"m={MAX_ENTRIES + 1} machines"):
        local_fleet(*fleet, 1, MAX_ENTRIES + 1, 0, 0)
    assert built == []
    steps, log_dets = local_fleet(*fleet, 1, 3, 0, 0)
    assert np.array_equal(steps, np.ones((3, D_FLEET))) and np.array_equal(log_dets, np.zeros(3))


def seed_mask(n, k, seed, trial, machine):
    """The mask as first written: one Philox stream per (seed, trial, machine)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial, machine))
    return np.random.Generator(np.random.Philox(seed=seq)).random(n) < (k / n)


def seed_hessian_gram(X, curv, k):
    """The local Hessian's Gram term as first written, without the ridge, from
    the rows X of a machine and their curvatures."""
    H = (X.T * curv) @ X / k
    return 0.5 * (H + H.T)


def gamma(j):
    """Higham's gamma_j = j u / (1 - j u), u = 2^-53: the a priori bound on the
    relative error of j rounded operations."""
    u = 2.0 ** -53
    return j * u / (1 - j * u)


def seed_covariance(data, include, k):
    """The local covariance as first written."""
    if include.sum() == 0:
        return np.zeros((data.d, data.d))
    X = data.X[include]
    C = X.T @ X / k
    return 0.5 * (C + C.T)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 10, 65]), loss=st.sampled_from(list(LossKind)),
       k=st.sampled_from([1, 3, 20]), seed=st.integers(0, 2**160),
       trial=st.sampled_from([1, 2**32, 2**70 - 1]))
@example(d=65, loss=LossKind.LOGISTIC, k=1, seed=0, trial=1)
@example(d=10, loss=LossKind.LOGISTIC, k=1, seed=1, trial=1)
@example(d=65, loss=LossKind.SQUARE, k=3, seed=2**160, trial=2**32)
def test_fleet_kernels_equal_the_seed_formulas(d, loss, k, seed, trial):
    # per machine: the fleet's masks and Gram matrices, built as the
    # production fleets build them (rows weighted once per fleet, one gram
    # per machine, the tail once per stack), and the public routines that
    # share their kernels.  Masks and covariances equal the seed formulas
    # byte for byte.  The Hessians equal each other byte for byte, and the
    # seed formula (X_s^T curv) X_s / k within the a priori bound of a dot
    # product of r terms, 2 gamma_{r+4} (|X_s|^T diag(c) |X_s|) / k, for a
    # machine of r rows: the symmetric product of the rows scaled by
    # sqrt(c) sums in another order and sqrt(c)^2 is not c.  Both sides take
    # the curvature c from X @ w over every row, as the fleet does; BLAS may
    # round a row of X_s @ w differently.  At k=1 about a third of the
    # 60-row masks are empty; at d=65 the fleet spans two stacks.  Seeds run
    # to six 32-bit words and trials to three.
    rng = np.random.default_rng(seed)
    n = 60
    data = Dataset(X=rng.standard_normal((n, d)), y=(rng.random(n) < 0.5).astype(float))
    obj = Objective(data, loss, lam=0.3)
    w = rng.standard_normal(d)
    m = block_size(d * d) + 3 if d == 65 else 12
    Z, f = hessian_rows(loss, data.X, w)
    curv = loss.d2value(data.X @ w)
    hessians, = local_fleet(Z, f, obj.lam, lambda H: (H,), k, m, seed, trial)
    covariances, = local_fleet(data.X, 1.0, 0.0, lambda C: (C,), k, m, seed, trial)
    for t in range(m):
        include = seed_mask(n, k, seed, trial, t)
        mask = draw_mask(n, k, SeedSpec(seed, trial, t))
        assert mask.include.tobytes() == include.tobytes() and mask.count == include.sum()
        G = gram(np.empty((d, d)), Z[include])
        want = gram_tail(G.copy(), k / f, obj.lam).tobytes()
        assert hessians[t].tobytes() == want and local_hessian(obj, w, mask).tobytes() == want
        X_s, c = data.X[include], curv[include]
        bound = 2 * gamma(include.sum() + 4) * (np.abs(X_s).T * c) @ np.abs(X_s) / k
        assert np.all(np.abs(gram_tail(G, k / f) - seed_hessian_gram(X_s, c, k)) <= bound)
        want = seed_covariance(data, include, k).tobytes()
        assert covariances[t].tobytes() == want and local_covariance(data, mask).tobytes() == want


# seeds of one to six 32-bit words, trials near the one-word edge and past it
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**160))
TRIALS = st.one_of(st.integers(0, 3), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**70))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, trial=TRIALS, start=st.integers(0, MAX_ENTRIES - 40), count=st.integers(1, 40))
@example(seed=0, trial=0, start=0, count=1)
@example(seed=2**160, trial=2**70, start=MAX_ENTRIES - 40, count=40)
@example(seed=np.int64(3), trial=np.uint32(2), start=0, count=3)  # numpy integers
@example(seed=2**128 - 1, trial=0, start=0, count=3)  # the last seed that fits the pool
@example(seed=2**128, trial=0, start=0, count=3)  # the first that goes past it
@example(seed=5, trial=2**32 - 1, start=0, count=3)
@example(seed=5, trial=2**32, start=0, count=3)
def test_stream_keys_equal_seed_sequence(seed, trial, start, count):
    keys = _stream_keys(_stream_prefix(seed, trial), start, start + count)
    assert keys.dtype == np.uint64 and keys.shape == (count, 2)
    for t, key in enumerate(keys, start):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(trial, t)).generate_state(
            2, np.uint64)
        assert key.tobytes() == want.tobytes()


def test_stream_prefix_refuses_a_seed_of_none():
    # SeedSequence(entropy=None) would read OS entropy instead of failing
    with pytest.raises(TypeError):
        _stream_prefix(None, 0)


# the rates k/n of the mask draw: every row (threshold 2^64 - 1), one
# expected row, exact binary fractions (rate 2^53 an integer, the threshold's
# edge) and any other
RATES = st.one_of(
    st.integers(1, 9).map(lambda n: (n, n)),
    st.integers(1, 9).map(lambda n: (n, 1)),
    st.tuples(st.integers(0, 3), st.integers(1, 8)).map(lambda e: (8 << e[0], e[1] << e[0])),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(lambda nk: (nk[0], min(nk))),
)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, trial=TRIALS, m=st.integers(1, 7), d=st.sampled_from([363, 296, 257]),
       rate=RATES)
@example(seed=0, trial=0, m=7, d=257, rate=(7, 7))
@example(seed=2**160, trial=2**70, m=5, d=296, rate=(9, 1))
@example(seed=1, trial=2**32, m=4, d=363, rate=(8, 3))
def test_fleet_masks_cross_blocks_bit_for_bit(seed, trial, m, d, rate):
    # through local_fleet, whose d picks stacks of 1 (d=363), 2 (296) or 3
    # (257) machines: the re-keyed Philox and the one mask buffer give each
    # machine _include's mask; n not a multiple of 4 leaves part of Philox's
    # last output unread.  Rows Z = [I 0] at factor k make each machine's
    # matrix diag(mask) in its leading n x n block, exactly.
    n, k = rate
    assert block_size(d * d) == {363: 1, 296: 2, 257: 3}[d]
    Z = np.zeros((n, d))
    Z[:, :n] = np.eye(n)
    diagonals, counts = local_fleet(
        Z, k, 0.0, lambda stack: (np.diagonal(stack, axis1=1, axis2=2)[:, :n].copy(),
                                   stack.sum(axis=(1, 2))), k, m, seed, trial)
    assert len(diagonals) == m
    for t, diagonal in enumerate(diagonals):
        mask = diagonal == 1
        assert np.array_equal(diagonal, mask)
        assert mask.tobytes() == _include(n, k / n, seed, trial, t).tobytes()
        assert counts[t] == mask.sum()


@pytest.mark.parametrize("n, k", [(1, 1), (7, 7), (7, 1), (8, 3), (1024, 1), (2000, 200), (3, 2)])
def test_threshold_splits_raw_words_as_random_does(n, k):
    # Generator.random maps a raw word r to (r >> 11) 2^-53; the words on
    # either side of the threshold, and the extremes, fall on the same side
    # of k/n under both maps
    rate, threshold = k / n, _threshold(k / n)
    assert 0 < threshold < 2**64
    for r in {0, threshold - 1, threshold, min(threshold + 1, 2**64 - 1), 2**64 - 1}:
        assert (r <= threshold) == ((r >> 11) * 2.0**-53 < rate), r


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_negative_seed_or_trial_is_refused_like_seed_sequence(seed, trial):
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(entropy=seed, spawn_key=(trial, 0))
    with pytest.raises(ValueError) as got:
        _stream_prefix(seed, trial)
    assert str(got.value) == str(want.value)
    fleet, built = fleet_with_one_bad_machine(-1, 1.0)
    with pytest.raises(ValueError, match=str(want.value)):
        local_fleet(*fleet, 1, 3, seed, trial)
    assert built == []


def test_local_fleet_builds_one_generator_per_fleet(monkeypatch):
    # a structural guard, without timing: 1024 machines, at most one
    # SeedSequence and Generator built for the whole fleet and one Philox
    # per thread that builds its machines, none per machine; in the
    # production fleets one gram runs per machine, the Gram tail once per
    # stack, and the Newton fleet weights its rows by the curvature once.
    # The d=65 fleets build on two threads, so the counts take a lock.
    built, philox_threads, lock = {}, [], threading.Lock()

    def counting(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            with lock:
                built[name] = built.get(name, 0) + 1
                if name == "Philox":
                    philox_threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    for name in ("SeedSequence", "Philox", "Generator"):
        counting(np.random, name)
    m, n, k = 1024, 50, 5
    # rows of ones at factor k: each machine's 1x1 matrix is its row count
    counts, = local_fleet(np.ones((n, 1)), k, 0.0, lambda stack: (stack.copy(),), k, m, 3, 2)
    assert built == {"SeedSequence": 1, "Philox": 1}, built
    assert np.array_equal(counts.ravel(), [_include(n, k / n, 3, 2, t).sum() for t in range(m)])

    d = 65
    m = 2 * block_size(d * d) + 5  # three stacks
    for module, name in ((sketch, "gram_tail"), (sketch, "gram"), (newton, "hessian_rows")):
        counting(module, name)
    monkeypatch.setattr(sketch.os, "sched_getaffinity", lambda pid: {0, 1})
    obj = small_objective(n=300, d=d)
    labels = Dataset(X=obj.data.X, y=(obj.data.y > 0).astype(float))
    for loss in LossKind:
        built.clear()
        philox_threads.clear()
        newton._local_steps(Objective(labels, loss, obj.lam), np.zeros(d), np.ones(d),
                            100, m, 0, 0)
        assert built == {"SeedSequence": 1, "Philox": 2, "hessian_rows": 1, "gram": m,
                         "gram_tail": 3}, (loss, built)
        assert len(set(philox_threads)) <= 2, philox_threads
    built.clear()
    uq._local_spectra(obj.data, 100, 1.0, m, 0, 0, uq.Statistic.TRACE)
    assert built == {"SeedSequence": 1, "Philox": 2, "gram": m, "gram_tail": 3}, built


def fleet_on(cpus, *args):
    """``local_fleet(*args)`` with ``os.sched_getaffinity`` reporting ``cpus``
    CPUs: its outputs, or the type, message and index of what it raised,
    and the set of threads that ran its ``gram`` calls.  The interpreter
    switches threads every microsecond meanwhile, so that two builders
    that shared any state would interleave on it."""
    threads = set()

    def gram_noting_thread(out, rows):
        threads.add(threading.get_ident())
        return gram(out, rows)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketch.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(sketch, "gram", gram_noting_thread)
        sys.setswitchinterval(1e-6)
        try:
            result = local_fleet(*args)
        except (NotPositiveDefinite, NonFiniteResult) as exc:
            result = (type(exc), str(exc), getattr(exc, "index", None))
        finally:
            sys.setswitchinterval(interval)
    return result, threads


# widths past sketch._WIDE, whose stacks hold 163, 62 and 3 machines
WIDE = st.sampled_from([40, 65, 257])


@settings(max_examples=24, deadline=None)
@given(d=WIDE, stacks=st.sampled_from(["one", "two", "odd", "three"]),
       newton_route=st.booleans(), k=st.sampled_from([1, 5, 30]), seed=st.integers(0, 2**40))
@example(d=65, stacks="three", newton_route=True, k=30, seed=0)
@example(d=257, stacks="three", newton_route=False, k=30, seed=1)
@example(d=40, stacks="odd", newton_route=False, k=5, seed=2)
@example(d=257, stacks="two", newton_route=True, k=1, seed=3)
@example(d=65, stacks="one", newton_route=False, k=30, seed=4)
def test_the_worker_thread_changes_no_byte(d, stacks, newton_route, k, seed):
    # the fleet built on one thread and on two, the worker building the
    # second half of each stack: m = 1 and 2, one stack of odd length, and
    # three stacks that end in a stack of one, through the Newton
    # decomposition and the covariance one
    block = block_size(d * d)
    m = {"one": 1, "two": 2, "odd": block - 1 + block % 2, "three": 2 * block + 1}[stacks]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, d))
    if newton_route:
        Z, f = hessian_rows(LossKind.LOGISTIC, X, rng.standard_normal(d) / d)
        args = (Z, f, 0.5, lambda H: linalg.factor_solve(H, np.ones(d)))
    else:
        args = (X, 1.0, 0.0, lambda C: uq._spectra(C, 0.25, uq.Statistic.DIAGONAL))
    serial, one = fleet_on(1, *args, k, m, seed, 1)
    threaded, two = fleet_on(2, *args, k, m, seed, 1)
    assert len(one) == 1 and len(two) == (1 if m == 1 else 2)
    assert [(a.dtype, a.shape, a.tobytes()) for a in serial] == \
        [(a.dtype, a.shape, a.tobytes()) for a in threaded]


def seed_where(masks_fit, n, k, m):
    """The first seed at which the masks of machines 0..m-1, at trial 0,
    pass ``masks_fit``."""
    return next(seed for seed in range(10_000)
                if masks_fit([_include(n, k / n, seed, 0, t) for t in range(m)]))


# an eigensolver refuses an infinite entry itself, so only the Newton route
# reaches the fleet's finite check with one
@pytest.mark.parametrize("fault, newton_route", [
    ("not positive definite", True), ("not positive definite", False), ("overflow", True),
], ids=["factor_solve", "spectra", "overflow"])
def test_a_fault_in_the_worker_half_is_named_as_on_one_thread(fault, newton_route):
    # rows Z = I at d = n = 24, a width on the threaded side, so each
    # machine's matrix is diagonal with its mask on the diagonal.  Of four
    # machines the caller builds 0 and 1 and the worker 2 and 3; the seed
    # is picked so that the first bad machine is one of the worker's.  Not
    # positive definite: no ridge, so a machine that leaves out a row is
    # singular.  Overflow: a row of 1e200 makes the worker's syrk overflow
    # to inf, which must raise no RuntimeWarning in the worker.
    d, m = 24, 4
    assert d >= sketch._WIDE
    Z = np.eye(d)
    if fault == "not positive definite":
        k, ridge, error = d - 1, 0.0, NotPositiveDefinite
        seed = seed_where(lambda masks: masks[0].all() and masks[1].all()
                          and not masks[3].all(), d, k, m)
    else:
        k, ridge, error = d // 2, 1.0, NonFiniteResult
        Z[0, 0] = 1e200
        seed = seed_where(lambda masks: not masks[0][0] and not masks[1][0] and masks[3][0],
                          d, k, m)
    decompose = ((lambda H: linalg.factor_solve(H, np.ones(d))) if newton_route
                 else (lambda C: uq._spectra(C, ridge, uq.Statistic.TRACE)))
    serial, _ = fleet_on(1, Z, 1.0, ridge, decompose, k, m, seed, 0)
    threaded, threads = fleet_on(2, Z, 1.0, ridge, decompose, k, m, seed, 0)
    assert len(threads) == 2
    assert serial == threaded and serial[0] is error, serial
    named = [t for t in range(m) if f"(seed, trial, machine) = ({seed}, 0, {t})" in serial[1]]
    assert named in ([2], [3]) and serial[2] in (None, *named), serial
