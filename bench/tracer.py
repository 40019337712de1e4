"""Per-layer tracing of detavg from outside the library.

While installed, the tracer replaces the public functions of each module
(and the methods listed below) with wrappers that time every call.  A
function imported by name into another module, such as ``draw_mask`` in
``newton`` and ``uq``, is replaced there too, because the tracer swaps every
``detavg`` module attribute that is the original object.  Uninstalling puts
each original back.

Spans nest: a span's busy time is its wall time, its self time is that
minus the busy time of the traced spans it called.  A function that calls
itself (``det_cofactor``) is timed at its outermost call only.  Spans are
folded into per-name totals as they close instead of being stored one by
one, since a traced op makes about ten thousand of them.

Counters that are computed rather than timed (rows gathered, bytes of
gathered rows, Cholesky flops, CSV bytes) are derived from the arguments
and results at the same boundaries.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _after_draw_mask(t, args, result):
    if result.count == 0:
        t.counters["sketch.empty_masks"] += 1
    if t.active["uq.uq_sweep"]:
        t.counters["uq.masks"] += 1


def _gathered(t, rows, d):
    t.counters["sketch.rows_gathered"] += rows
    t.counters["sketch.gather_bytes"] += rows * d * 8  # float64 rows


def _after_local_hessian(t, args, result):
    obj, _w, mask = args[:3]
    _gathered(t, mask.count, obj.data.d)


def _after_local_covariance(t, args, result):
    data, mask = args[:2]
    _gathered(t, mask.count, data.d)


def _after_cholesky(t, args, result):
    d = result.shape[0]
    t.counters["linalg.cholesky.flops"] += d ** 3 / 3
    # the exact reference factorizes once per sweep; only local ones count
    if t.active["uq.uq_sweep"] and not t.active["uq.exact_statistic"]:
        t.counters["uq.factorizations"] += 1


def _after_write_csv(t, args, result):
    t.counters["cli.write_csv.bytes"] += os.path.getsize(args[0])


def _after_parse_libsvm(t, args, result):
    source = args[0]
    if isinstance(source, str):
        size = len(source.encode("utf-8"))
    elif hasattr(source, "fileno"):
        size = os.fstat(source.fileno()).st_size
    else:
        size = 0
    t.counters["dataio.parse_libsvm.bytes"] += size


# (span name, module, attribute path, hook run after a call returns)
SPANS = (
    ("sketch.draw_mask", "detavg.sketch", "draw_mask", _after_draw_mask),
    ("sketch.local_hessian", "detavg.sketch", "local_hessian", _after_local_hessian),
    ("sketch.local_covariance", "detavg.sketch", "local_covariance", _after_local_covariance),
    ("linalg.cholesky", "detavg.linalg", "cholesky", _after_cholesky),
    ("linalg.require_symmetric", "detavg.linalg", "require_symmetric", None),
    ("linalg.solve_chol", "detavg.linalg", "solve_chol", None),
    ("linalg.solve_psd", "detavg.linalg", "solve_psd", None),
    ("linalg.mahalanobis_norm", "detavg.linalg", "mahalanobis_norm", None),
    ("linalg.det_cofactor", "detavg.linalg", "det_cofactor", None),
    ("linalg.adjugate_cofactor", "detavg.linalg", "adjugate_cofactor", None),
    ("averaging.push", "detavg.averaging", "WeightedAccumulator.push", None),
    ("averaging.finalize", "detavg.averaging", "WeightedAccumulator.finalize", None),
    ("averaging.combine", "detavg.averaging", "combine_determinantal", None),
    ("averaging.combine", "detavg.averaging", "combine_uniform", None),
    ("newton.local_newton_estimate", "detavg.newton", "local_newton_estimate", None),
    ("newton.merged_step", "detavg.newton", "merged_step", None),
    ("newton.error_sweep", "detavg.newton", "error_sweep", None),
    ("newton._sweep_trial", "detavg.newton", "_sweep_trial", None),
    ("newton.exact_minimizer", "detavg.newton", "exact_minimizer", None),
    ("newton.coherence", "detavg.newton", "coherence", None),
    ("uq.uq_sweep", "detavg.uq", "uq_sweep", None),
    ("uq._uq_trial", "detavg.uq", "_uq_trial", None),
    ("uq.exact_statistic", "detavg.uq", "exact_statistic", None),
    ("objective.hessian", "detavg.objective", "Objective.hessian", None),
    ("objective.gradient", "detavg.objective", "Objective.gradient", None),
    ("objective.loss_value", "detavg.objective", "Objective.loss_value", None),
    ("dataio.parse_libsvm", "detavg.dataio", "parse_libsvm", _after_parse_libsvm),
    ("oracle.expect_det", "detavg.oracle", "expect_det", None),
    ("oracle.expect_adjugate", "detavg.oracle", "expect_adjugate", None),
    ("oracle.expect_weighted_inverse", "detavg.oracle", "expect_weighted_inverse", None),
    ("cli", "detavg.cli", "main", None),
    ("cli.write_csv", "detavg.cli", "write_csv", _after_write_csv),
    ("cli.load_data", "detavg.cli", "load_data", None),
    ("parallel.parallel_map", "detavg.parallel", "parallel_map", None),
)

# generators whose items are counted instead of timed
COUNTED = (("oracle.outcomes.count", "detavg.oracle", "RandomRankOneSum.outcomes"),)

_MARK = "__bench_trace__"


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target no longer exists."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    # a class attribute is read from the class dict so that wrapping sees the
    # plain function, not a bound method
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _detavg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "detavg" or name.startswith("detavg."))]


class Tracer:
    """Span totals and counters for the calls made while it is installed."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy_s, self_s
        self.counters = defaultdict(float)
        self.active = defaultdict(int)  # open spans per name
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, busy time of child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                tracer.active[name] -= 1
                totals = tracer.stats[name]
                totals[0] += 1
                totals[1] += busy
                totals[2] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return wrapper

    def _patch(self, original, wrapper, owner, attr):
        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # rebind every module-level alias, e.g. ``from .sketch import draw_mask``
        for module in _detavg_modules():
            for key, value in list(vars(module).items()):
                if value is original and not (module is owner and key == attr):
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        self.absent = []
        targets = [(module, path, lambda fn, n=name, h=hook: self._span(n, fn, h))
                   for name, module, path, hook in SPANS]
        targets += [(module, path, lambda fn, n=name: self._counted(n, fn))
                    for name, module, path in COUNTED]
        for module, path, make_wrapper in targets:
            target = _resolve(module, path)
            if target is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = target
            self._patch(original, make_wrapper(original), owner, attr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def leftover_wrappers() -> list[str]:
    """Names of tracing wrappers still reachable from any detavg module or class."""
    found = []
    for module in _detavg_modules():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


# per-layer metrics reported by a traced run: (name, unit, better)
def _timed(span, fields):
    units = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "self_s": ("s", "lower")}
    return [(f"{span}.{f}", *units[f]) for f in fields]


ALL = ("calls", "busy_s", "self_s")
PER_LAYER = (
    _timed("sketch.draw_mask", ALL)
    + _timed("sketch.local_hessian", ALL)
    + _timed("sketch.local_covariance", ALL)
    + [("sketch.rows_gathered", "count", "lower"),
       ("sketch.empty_masks", "count", "lower"),
       ("sketch.gather_bytes", "B", "lower")]
    + _timed("linalg.cholesky", ALL)
    + _timed("linalg.require_symmetric", ALL)
    + _timed("linalg.solve_chol", ALL)
    + _timed("linalg.solve_psd", ALL)
    + _timed("linalg.mahalanobis_norm", ALL)
    + [("linalg.cholesky.flops", "flop", "lower")]
    + _timed("linalg.det_cofactor", ALL)
    + _timed("linalg.adjugate_cofactor", ALL)
    + _timed("averaging.push", ALL)
    + _timed("averaging.finalize", ALL)
    + _timed("averaging.combine", ALL)
    + _timed("newton.local_newton_estimate", ALL)
    + _timed("newton.merged_step", ("self_s",))
    + _timed("newton.error_sweep", ("self_s",))
    + _timed("newton._sweep_trial", ("self_s",))
    + _timed("newton.exact_minimizer", ("busy_s",))
    + _timed("newton.coherence", ("busy_s",))
    + _timed("uq.uq_sweep", ("self_s",))
    + _timed("uq._uq_trial", ("self_s",))
    + _timed("uq.exact_statistic", ("busy_s",))
    + [("uq.factorizations_per_mask", "ratio", "lower")]
    + _timed("objective.hessian", ("busy_s",))
    + _timed("objective.gradient", ("busy_s",))
    + _timed("objective.loss_value", ("busy_s",))
    + _timed("dataio.parse_libsvm", ("busy_s",))
    + [("dataio.parse_libsvm.bytes_per_s", "B/s", "higher"),
       ("oracle.outcomes.count", "count", "lower")]
    + _timed("oracle.expect_det", ("busy_s",))
    + _timed("oracle.expect_adjugate", ("busy_s",))
    + _timed("oracle.expect_weighted_inverse", ("busy_s",))
    + _timed("cli.write_csv", ("busy_s",))
    + [("cli.write_csv.bytes", "B", "lower")]
    + _timed("cli.load_data", ("busy_s",))
    + _timed("cli", ("self_s",))
    + _timed("parallel.parallel_map", ("self_s",))
    + [("trace.overhead_ratio", "ratio", "lower")]
)


PER_OP_COUNTERS = (
    "sketch.rows_gathered", "sketch.empty_masks", "sketch.gather_bytes",
    "linalg.cholesky.flops", "oracle.outcomes.count", "cli.write_csv.bytes",
)
_FIELD = {"calls": 0, "busy_s": 1, "self_s": 2}


def layer_values(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric: totals as a mean per traced op, ratios as they are."""
    values = {}
    for name, _unit, _better in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in PER_OP_COUNTERS:
            values[name] = tracer.counters[name] / ops
        elif field in _FIELD:
            values[name] = tracer.stats[span][_FIELD[field]] / ops
    masks = tracer.counters["uq.masks"]
    values["uq.factorizations_per_mask"] = (
        tracer.counters["uq.factorizations"] / masks if masks else 0.0
    )
    parse_busy = tracer.stats["dataio.parse_libsvm"][1]
    values["dataio.parse_libsvm.bytes_per_s"] = (
        tracer.counters["dataio.parse_libsvm.bytes"] / parse_busy if parse_busy else 0.0
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return values
