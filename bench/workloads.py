"""The benchmark's workloads: their inputs, CLI argv, work counts and output checks.

Every op is one call of the public command line, ``detavg.cli.main(argv)``.
A workload turns the benchmark's ``--seed`` into the inputs of each op,
counts the local machine estimates an op delivers from the op's shape (not
from the program), and checks the op's output three ways: the table is
complete and finite, one snapshot agrees with an independent public
single-fleet path, and at the default seed the values match the reference
recorded in ``reference.json``.

Importing this module imports ``detavg``, so the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from detavg import (
    Dataset,
    LossKind,
    MachineConfig,
    Objective,
    Scheme,
    Statistic,
    UqConfig,
    dataio,
    estimate_precision_statistic,
    merged_step,
    oracle,
)
from detavg.newton import exact_minimizer

RTOL = 1e-9
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# n=2000 Gaussian rows in d=10 with unit noise: the acceptance instance
SYNTH = (2000, 10, 1.0)


class CheckFailed(Exception):
    """An op's output is wrong or incomplete."""


def _close(got: float, want: float, what: str) -> None:
    if not (math.isfinite(got) and math.isfinite(want)
            and abs(got - want) <= RTOL * max(abs(got), abs(want))):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (rtol {RTOL})")


def _read_table(path: Path, header: tuple[str, ...], n_rows: int) -> list[list[str]]:
    """Rows of a CSV the CLI wrote, after checking its header and row count."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        raise CheckFailed(f"no output table: {exc}") from None
    if lines[-1] != "":
        raise CheckFailed("table does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != ",".join(header):
        raise CheckFailed(f"bad header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_rows:
        raise CheckFailed(f"{len(rows)} rows, expected {n_rows}")
    if any(len(r) != len(header) for r in rows):
        raise CheckFailed("row with the wrong number of columns")
    return rows


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: not finite: {text!r}")
    return value


def _synth_objective(op_seed: int) -> Objective:
    # the CLI's --synth N,D,NOISE --lambda auto, rebuilt through the library
    data = dataio.synth_regression(*SYNTH, seed=op_seed)
    return Objective(data=data, loss=LossKind.SQUARE, lam=1.0 / data.n)


class Workload:
    """One workload.  Subclasses set the shape and define argv and check."""

    name: str
    why: str
    KERNEL = "machines"  # the SpeedKernel whose work is most like an op's
    CYCLE = 1  # ops per pass over a fixed suite of inputs

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write the files the ops read.  Part of the timed set-up."""

    def op_seed(self, seed: int, index: int) -> int:
        """CLI seed of op ``index`` (index 0 is the untimed warm-up op)."""
        return seed * 100_000 + index

    def argv(self, op_seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def machines(self, op_seed: int) -> int:
        """Local estimates one op delivers, counted from its shape."""
        raise NotImplementedError

    def check(self, op_seed: int, out: Path, stdout: str) -> list[float]:
        """Raise CheckFailed on a wrong output; return the values the
        reference check compares."""
        raise NotImplementedError


class FleetD10(Workload):
    name = "fleet-d10"
    why = "acceptance step-error sweep: per-machine mask, Gram, Cholesky, solve and two pushes"
    M_LIST = (8, 16, 32, 64, 128, 256, 512, 1024)
    TRIALS = 1
    K = 200
    HEADER = ("scheme", "m", "k", "trial", "err_euclidean", "err_hnorm")

    def argv(self, op_seed, out):
        return [
            "newton-sweep", "--synth", ",".join(map(str, SYNTH)), "--k", str(self.K),
            "--lambda", "auto", "--m", ",".join(map(str, self.M_LIST)), "--scheme", "both",
            "--trials", str(self.TRIALS), "--threads", "1", "--seed", str(op_seed),
            "--out", str(out),
        ]

    def machines(self, op_seed):
        return self.TRIALS * max(self.M_LIST)

    def check(self, op_seed, out, stdout):
        rows = _read_table(out, self.HEADER, 2 * len(self.M_LIST) * self.TRIALS)
        table = {}
        for r in rows:
            key = (r[0], int(r[1]), int(r[3]))
            if int(r[2]) != self.K:
                raise CheckFailed(f"row {key}: k={r[2]}")
            table[key] = (_finite(r[4], "err_euclidean"), _finite(r[5], "err_hnorm"))
        expected = {(s.value, m, t) for s in Scheme for m in self.M_LIST
                    for t in range(self.TRIALS)}
        if set(table) != expected:
            raise CheckFailed("rows do not cover every (scheme, m, trial)")
        try:
            json.loads(out.with_suffix(".meta.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"bad .meta.json sidecar: {exc}") from None
        obj = _synth_objective(op_seed)
        trial = op_seed % self.TRIALS
        m = self.M_LIST[0]
        for scheme in Scheme:
            cfg = MachineConfig(m=m, k=self.K, scheme=scheme)
            rep = merged_step(obj, np.zeros(obj.d), cfg, op_seed, trial=trial)
            err_e, err_h = table[(scheme.value, m, trial)]
            _close(err_e, rep.err_euclidean, f"{scheme.value} m={m} err_euclidean")
            _close(err_h, rep.err_hnorm, f"{scheme.value} m={m} err_hnorm")
        return [v for key in sorted(table) for v in table[key]]


class PrecisionD10(Workload):
    name = "precision-d10"
    why = "precision-trace sweep: linalg-bound, each mask refactorized per m, no curvature"
    M_LIST = (16, 32, 64, 128, 256, 512, 1024)
    TRIALS = 1
    K = 200
    ETA = 1.0
    HEADER = ("statistic", "m", "k", "eta", "trial", "estimate", "exact", "abs_err")

    def argv(self, op_seed, out):
        return [
            "uq-sweep", "--synth", ",".join(map(str, SYNTH)), "--k", str(self.K),
            "--m", ",".join(map(str, self.M_LIST)), "--eta", repr(self.ETA),
            "--statistic", "trace", "--trials", str(self.TRIALS), "--threads", "1",
            "--seed", str(op_seed), "--out", str(out),
        ]

    def machines(self, op_seed):
        return self.TRIALS * sum(self.M_LIST)

    def check(self, op_seed, out, stdout):
        rows = _read_table(out, self.HEADER, len(self.M_LIST) * self.TRIALS)
        table = {}
        for r in rows:
            key = (int(r[1]), int(r[4]))
            if r[0] != "trace" or int(r[2]) != self.K or float(r[3]) != self.ETA:
                raise CheckFailed(f"row {key}: bad statistic, k or eta")
            table[key] = tuple(_finite(v, h) for v, h in zip(r[5:], self.HEADER[5:]))
        if set(table) != {(m, t) for m in self.M_LIST for t in range(self.TRIALS)}:
            raise CheckFailed("rows do not cover every (m, trial)")
        data = _synth_objective(op_seed).data
        trial = op_seed % self.TRIALS
        m = self.M_LIST[0]
        cfg = UqConfig(m=m, k=self.K, eta=self.ETA, statistic=Statistic.TRACE)
        want = estimate_precision_statistic(data, cfg, op_seed, trial=trial)
        for got, w, h in zip(table[(m, trial)], want, self.HEADER[5:]):
            _close(got, float(w), f"m={m} {h}")
        return [v for key in sorted(table) for v in table[key]]


class LogisticD65File(Workload):
    name = "logistic-d65-file"
    why = "logistic Newton on a parsed d=65 file: Gram-bound, batch combiner, exact minimizer"
    KERNEL = "gram65"
    M = 256
    K = 400
    ITERS = 3
    FILE = "logistic-d65.svm"
    HEADER = ("iter", "dist_to_opt", "loss", "scheme")

    def __init__(self):
        self._reference_point = None  # (path, objective, minimizer), fixed per run

    def prepare(self, seed, workdir):
        # standardized degree-2 expansion of a seeded 2000x10 instance,
        # labels binarized by sign so the file is a ready logistic dataset
        base = dataio.synth_regression(*SYNTH, seed=seed)
        X = dataio.standardize(dataio.expand_degree2(base)).X
        data = Dataset(X=X, y=(base.y > 0).astype(float))
        (workdir / self.FILE).write_text(dataio.serialize_libsvm(data), encoding="utf-8")

    def argv(self, op_seed, out):
        return [
            "newton-converge", "--dataset", str(out.parent / self.FILE), "--loss", "logistic",
            "--lambda", "auto", "--k", str(self.K), "--m", str(self.M),
            "--iters", str(self.ITERS), "--threads", "1", "--seed", str(op_seed),
            "--out", str(out),
        ]

    def machines(self, op_seed):
        return self.ITERS * self.M

    def _objective(self, path: Path):
        if self._reference_point is None or self._reference_point[0] != path:
            data = dataio.load_libsvm(path)
            obj = Objective(data=data, loss=LossKind.LOGISTIC, lam=1.0 / data.n)
            self._reference_point = (path, obj, exact_minimizer(obj))
        return self._reference_point[1:]

    def check(self, op_seed, out, stdout):
        rows = _read_table(out, self.HEADER, self.ITERS + 1)
        dist, loss = [], []
        for i, r in enumerate(rows):
            if int(r[0]) != i or r[3] != Scheme.DETERMINANTAL.value:
                raise CheckFailed(f"row {i}: bad iter or scheme")
            dist.append(_finite(r[1], "dist_to_opt"))
            loss.append(_finite(r[2], "loss"))
        obj, w_star = self._objective(out.parent / self.FILE)
        cfg = MachineConfig(m=self.M, k=self.K, scheme=Scheme.DETERMINANTAL)
        w1 = -merged_step(obj, np.zeros(obj.d), cfg, op_seed, trial=0).step
        _close(dist[0], float(np.linalg.norm(w_star)), "iterate 0 dist_to_opt")
        _close(dist[1], float(np.linalg.norm(w1 - w_star)), "iterate 1 dist_to_opt")
        return dist + loss


class ExactOracle(Workload):
    name = "exact-oracle"
    why = "exact enumeration oracle: pure-Python outcome loops and cofactor linalg, no sketch"
    MODELS = 20
    MAX_N = 8
    MAX_D = 3
    # A model's cost grows with its 2^n..3^n outcomes, so 20 models drawn
    # from a fresh seed per op make run medians spread by about 10% from the
    # inputs alone.  The ops therefore cycle through a fixed suite of CYCLE
    # seeds, a run's times count whole passes only, and the benchmark seed
    # only sets where in the suite a run starts.  An odd CYCLE keeps the
    # median inside the copies of one suite member.
    CYCLE = 11
    IDENTITY_TOL = 1e-10
    _LINE = re.compile(r"max deviation (\S+)  (ok|FAIL)$")
    _GAP = re.compile(r"gap (\S+)  expected-fail confirmed$")

    def __init__(self):
        self._outcomes: dict[int, int] = {}

    def op_seed(self, seed, index):
        return (seed + index) % self.CYCLE

    def argv(self, op_seed, out):
        return [
            "verify-identities", "--models", str(self.MODELS), "--max-n", str(self.MAX_N),
            "--max-d", str(self.MAX_D), "--seed", str(op_seed),
        ]

    def machines(self, op_seed):
        # an outcome of a model is one realization of a local matrix, the
        # oracle's counterpart of a machine; the suite draws its models from
        # default_rng(seed) in order, so their shapes follow from the seed
        if op_seed not in self._outcomes:
            rng = np.random.default_rng(op_seed)
            self._outcomes[op_seed] = sum(
                oracle.random_model(rng, self.MAX_N, self.MAX_D).n_outcomes
                for _ in range(self.MODELS)
            )
        return self._outcomes[op_seed]

    def check(self, op_seed, out, stdout):
        lines = stdout.splitlines()
        if len(lines) != 6 or lines[0] != (
            f"checked {self.MODELS} random rank-one models (seed {op_seed})"
        ):
            raise CheckFailed(f"unexpected report: {lines[:1]!r}, {len(lines)} lines")
        for line in lines[1:5]:
            match = self._LINE.search(line)
            if not match or match[2] != "ok" or not float(match[1]) <= self.IDENTITY_TOL:
                raise CheckFailed(f"identity not confirmed: {line.strip()!r}")
        match = self._GAP.search(lines[5])
        if not match:
            raise CheckFailed(f"counterexample not confirmed: {lines[5].strip()!r}")
        return [float(match[1])]


WORKLOADS = {w.name: w for w in (FleetD10, PrecisionD10, LogisticD65File, ExactOracle)}


def load_reference() -> dict[str, list[float]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_reference(name: str, values: list[float], reference: dict) -> None:
    want = reference.get(name)
    if want is None:
        raise CheckFailed(f"no reference values for {name}")
    if len(values) != len(want):
        raise CheckFailed(f"{len(values)} values, reference has {len(want)}")
    for i, (got, w) in enumerate(zip(values, want)):
        _close(got, w, f"reference value {i}")
