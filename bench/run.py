"""Benchmark of the detavg command line: end-to-end times and traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fleet-d10 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` a run times the set-up (import plus input generation, in
fresh interpreters) and then one op after another for ``--seconds``; with
``--trace 1`` it alternates untraced and traced ops and reports per-layer
totals instead.  Every op is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in ``BENCHMARK.json`` and prints a
table.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 120
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "machines_per_s": "1/s", "peak_rss_mb": "MB",
}


# Reported times are scaled to a machine of fixed speed.  On the shared
# 2-core box where the benchmark was written, one op took 0.17 s or 0.31 s
# depending on the load next to it, and raw run medians spread by 20-30%.
# Each op is bracketed by a short fixed kernel, and op time *
# NOMINAL_KERNEL_S / kernel time reads as seconds on a machine where the
# kernel takes NOMINAL_KERNEL_S.  Raw times are printed beside the scaled ones.
NOMINAL_KERNEL_S = 0.005


class BenchError(Exception):
    """The benchmark could not run, so it prints no result."""


class SpeedKernel:
    """A fixed sample of one kind of work the ops do, written with numpy and
    scipy alone so that no change to detavg moves it.

    ``machines``: the steps of 24 simulated machines at d=10 (stream key,
    mask, gather, Gram matrix, symmetry check, Cholesky, solve).
    ``gram65``: 32 Gram builds of 400x65 rows and their factorizations.
    Each takes about 5 ms on the box where the benchmark was written.
    """

    def __init__(self, kind: str):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        self._np = np
        self._cho_solve = scipy.linalg.cho_solve
        self._X = rng.standard_normal((2000, 10))
        self._Z = rng.standard_normal((400, 65))
        self._work = {"machines": self._machines, "gram65": self._gram65}[kind]

    def _machines(self):
        np = self._np
        for machine in range(24):
            seq = np.random.SeedSequence(entropy=12345, spawn_key=(0, machine))
            include = np.random.Generator(np.random.Philox(seed=seq)).random(2000) < 0.1
            rows = self._X[include]
            H = rows.T @ rows / 200 + 1e-3 * np.eye(10)
            H = 0.5 * (H + H.T)
            np.allclose(H, H.T)
            L = np.linalg.cholesky(H)
            self._cho_solve((L, True), np.ones(10), check_finite=False)

    def _gram65(self):
        np = self._np
        for _ in range(32):
            H = self._Z.T @ self._Z / 400 + np.eye(65)
            np.linalg.cholesky(0.5 * (H + H.T))

    def seconds(self) -> float:
        start = perf_counter()
        self._work()
        return perf_counter() - start

    def median_seconds(self, repeats: int = 5) -> float:
        return statistics.median(self.seconds() for _ in range(repeats))


def _import_detavg():
    if not (SRC / "detavg" / "__init__.py").is_file():
        raise BenchError(f"no detavg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import detavg.cli  # noqa: F401  (the op entry point, and all of detavg)
    import workloads

    if Path(detavg.cli.__file__).resolve().parent != SRC / "detavg":
        raise BenchError(f"imported detavg from {detavg.cli.__file__}, not {SRC}")
    return detavg.cli, workloads


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """One timed set-up, run in a fresh interpreter: import, then make inputs."""
    start = perf_counter()
    _, workloads = _import_detavg()
    workloads.WORKLOADS[workload]().prepare(seed, workdir)
    elapsed = perf_counter() - start
    kernel = SpeedKernel("machines").median_seconds()
    print(json.dumps({"setup_s": elapsed, "kernel_s": kernel}))


def timed_setups(workload: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(raw seconds, kernel seconds) of each set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["kernel_s"]))
    return times


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "detavg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


class Runner:
    """Runs and checks the ops of one workload in this process."""

    def __init__(self, cli, workloads, name: str, seed: int, workdir: Path):
        self.cli = cli
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]()
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, index: int, tracer=None):
        """Run op ``index`` once: (seconds, op seed, outputs, ok)."""
        op_seed = self.workload.op_seed(self.seed, index)
        out = self.workdir / "op.csv"
        for old in self.workdir.glob("op.*"):
            old.unlink()
        argv = self.workload.argv(op_seed, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if tracer is None:
                    start = perf_counter()
                    code = self.cli.main(argv)
                    seconds = perf_counter() - start
                else:
                    with tracer.installed():
                        start = perf_counter()
                        code = self.cli.main(argv)
                        seconds = perf_counter() - start
        except Exception:  # a crashing op is a failed op; the run goes on
            return self._fail(index, traceback.format_exc())
        outputs = {p.name: p.read_bytes() for p in sorted(self.workdir.glob("op.*"))}
        outputs["stdout"] = stdout.getvalue().encode()
        if code != 0:
            return self._fail(index, f"exit code {code}: {stderr.getvalue().strip()}", seconds)
        return seconds, op_seed, outputs, True

    def check(self, index: int, op_seed: int, stdout: bytes, reference=None) -> bool:
        try:
            values = self.workload.check(op_seed, self.workdir / "op.csv", stdout.decode())
            if reference is not None:
                self.workloads.check_reference(self.workload.name, values, reference)
        except Exception:  # wrong output and a crashing check both fail the op
            self._fail(index, traceback.format_exc())
            return False
        return True

    def _fail(self, index, message, seconds=float("nan")):
        self.failed += 1
        self.errors.append(f"op {index}: {message}")
        return seconds, None, None, False

    def warm_up(self) -> None:
        """Op 0, untimed; at the default seed its values must match the reference."""
        _, op_seed, outputs, ok = self.op(0)
        if ok:
            reference = None
            if self.seed == self.workloads.DEFAULT_SEED:
                reference = self.workloads.load_reference()
            self.check(0, op_seed, outputs["stdout"], reference)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops above it, and that percentile."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_untraced(runner: Runner, seconds: float,
                 setups: list[tuple[float, float]]) -> dict:
    kernel = SpeedKernel(runner.workload.KERNEL)
    raw, scaled, rates = [], [], []
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline:
        before = kernel.seconds()
        elapsed, op_seed, outputs, ok = runner.op(index)
        after = kernel.seconds()
        if ok and runner.check(index, op_seed, outputs["stdout"]):
            op_s = elapsed * 2 * NOMINAL_KERNEL_S / (before + after)
            raw.append(elapsed)
            scaled.append(op_s)
            rates.append(runner.workload.machines(op_seed) / op_s)
        index += 1
    if not scaled:
        raise BenchError("no op succeeded:\n" + "\n".join(runner.errors[-3:]))
    # a workload that cycles through a fixed suite counts whole passes only
    keep = len(scaled) // runner.workload.CYCLE * runner.workload.CYCLE or len(scaled)
    raw, scaled, rates = raw[:keep], scaled[:keep], rates[:keep]
    tail_s, tail_pct = tail(scaled)
    setup_raw = statistics.median(t for t, _ in setups)
    print(f"ops timed: {len(scaled)}; op_tail_s is p{tail_pct:.1f}")
    print(f"unscaled: op_p50_s {statistics.median(raw):.6g} s, "
          f"op_tail_s {tail(raw)[0]:.6g} s, setup_s {setup_raw:.6g} s")
    print(f"fail_ratio: {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} ops)")
    values = {
        "setup_s": statistics.median(t * NOMINAL_KERNEL_S / k for t, k in setups),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "machines_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# Counts the workload's shape fixes; a traced run that breaks one is wrong.
ZERO_COUNTS = {
    "fleet-d10": ("oracle.outcomes.count",),
    "precision-d10": ("oracle.outcomes.count",),
    "logistic-d65-file": ("oracle.outcomes.count", "averaging.push.calls"),
    "exact-oracle": ("sketch.draw_mask.calls", "averaging.push.calls",
                     "averaging.combine.calls"),
}
# Redrawn masks per factorization cannot exceed sum(m) / max(m) of the grid.
MAX_FACTORIZATIONS_PER_MASK = 2032 / 1024


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, problems = [], [], []
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline:
        # same op seed both ways; alternate which goes first
        order = (False, True) if index % 2 else (True, False)
        results = {}
        for with_trace in order:
            results[with_trace] = runner.op(index, tracer if with_trace else None)
        (t_plain, op_seed, out_plain, ok_plain), (t_traced, _, out_traced, ok_traced) = (
            results[False], results[True])
        if ok_plain and ok_traced:
            if out_plain != out_traced:
                problems.append(f"op {index}: traced output differs from untraced")
            elif runner.check(index, op_seed, out_plain["stdout"]):
                plain.append(t_plain)
                traced.append(t_traced)
        index += 1
    if not traced:
        raise BenchError("no traced op succeeded:\n" + "\n".join(runner.errors[-3:]))
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    if tracer.absent:
        print(f"trace targets not in this version: {tracer.absent}")
    ratio = statistics.median(traced) / statistics.median(plain)
    values = tracing.layer_values(tracer, len(traced), ratio)
    for name in ZERO_COUNTS[runner.workload.name]:
        if values[name] != 0:
            problems.append(f"{name} is {values[name]}, predicted 0")
    if values["uq.factorizations_per_mask"] > MAX_FACTORIZATIONS_PER_MASK + 1e-12:
        problems.append(f"uq.factorizations_per_mask is {values['uq.factorizations_per_mask']}")
    print(f"ops traced: {len(traced)}; uq.factorizations_per_mask "
          f"{values['uq.factorizations_per_mask']:.6f}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, problems


def run_one(args) -> int:
    cli, workloads = _import_detavg()
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.trace else timed_setups(args.workload, args.seed, workdir)
        runner = Runner(cli, workloads, args.workload, args.seed, workdir)
        runner.workload.prepare(args.seed, workdir)
        print(json.dumps({"env": environment(args.seed)}, sort_keys=True))
        runner.warm_up()
        if args.trace:
            metrics, problems = run_traced(runner, args.seconds)
        else:
            metrics, problems = run_untraced(runner, args.seconds, setups), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.errors + problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record_reference(args) -> int:
    """Write reference.json: the checked values of op 0 of every workload at
    the default seed."""
    cli, workloads = _import_detavg()
    reference = {}
    for name in workloads.WORKLOADS:
        workdir = WORK / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            runner = Runner(cli, workloads, name, workloads.DEFAULT_SEED, workdir)
            runner.workload.prepare(runner.seed, workdir)
            _, op_seed, outputs, ok = runner.op(0)
            if not ok:
                raise BenchError("\n".join(runner.errors))
            reference[name] = runner.workload.check(
                op_seed, workdir / "op.csv", outputs["stdout"].decode())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in its own process, as one table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    rows = []
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload['name']}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        fail_ratio = result["failed"] / result["attempted"]
        rows.append((workload["name"], "fail_ratio", f"{fail_ratio:.4f}", "ratio"))
        for name, m in result["metrics"].items():
            rows.append((workload["name"], name, f"{m['value']:.6g}", m["unit"]))
    width = max(len(r[1]) for r in rows) if rows else 0
    for workload, name, value, unit in rows:
        print(f"{workload:<18} {name:<{width}} {value:>12} {unit}")
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this checkout and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Ops are issued by one client at --threads 1 on matrices of at most
    # 65x65.  A second BLAS thread spin-waits beside it, and on a 2-core box
    # op times then swing by a third with the load of the other core, so
    # BLAS gets one thread.  Set before numpy is imported; probes inherit it.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    try:
        if args.record_reference:
            return record_reference(args)
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.workdir)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
