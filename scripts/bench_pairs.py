"""Run the benchmark on two source trees in alternating pairs and summarize.

Usage::

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seed S [--seconds 20]

Pair i (i = 0 .. N-1) runs ``python3 bench/run.py --workload W --seed S+i
--seconds T --trace 0`` in each tree, the parent first when i is even and
the change first when it is odd, and reads the JSON object on the last line
of each run's standard output.  The record goes to standard output as JSON:
``command``, ``env`` (see :data:`ENV_KEYS`, from the environment line of
the first run) and, under the workload's name, ``runs`` and ``summary``.
Each run holds its seed, the side that went first, both sides'
``attempted``, ``failed``, ``correct`` and metrics, and the sha256 of each
tree's ``src/detavg`` (see :func:`source_sha256`).  For every end-to-end
metric of the change tree's ``BENCHMARK.json`` the summary holds each
side's median and inclusive quartiles, ``change_better_in`` (the pairs in
which the change reads better by that metric's ``better``; ties count for
neither side), ``change_over_parent_median`` and a ``verdict`` (see
:func:`verdict`).  Each run starts with no bytecode of
detavg in its tree and writes none (see :func:`run_side`).  A run that
exits nonzero stops the script with exit code 1.  Progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# what the environment line of a run says of the machine and the numeric
# stack; its commit, source hash and seed are the run's own
ENV_KEYS = ("python", "numpy", "scipy", "blas", "blas_threads_env", "nproc", "affinity", "cpu")


def source_sha256(tree: Path) -> str:
    """sha256 over the files under ``tree/src/detavg`` but ``__pycache__``,
    in sorted order of their relative paths, each hashed as its path, a NUL
    byte and its bytes."""
    root = tree / "src" / "detavg"
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class RunFailed(Exception):
    """A benchmark run exited nonzero."""


def bench_argv(workload: str, seed: str, seconds: float) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", "0"]


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its last JSON line, metrics flattened,
    and the :data:`ENV_KEYS` of its ``{"env": ...}`` line.

    Every run starts from the same bytecode state: the tree's
    ``src/detavg/__pycache__`` is deleted first and the run writes none
    (``PYTHONDONTWRITEBYTECODE=1``), so each set-up probe compiles detavg
    from source on both sides, where a tree holding valid bytecode would
    import it faster and read a lower ``setup_s``.
    """
    shutil.rmtree(tree / "src" / "detavg" / "__pycache__", ignore_errors=True)
    proc = subprocess.run([sys.executable, *bench_argv(workload, str(seed), seconds)],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise RunFailed(f"{tree}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    row = {key: result[key] for key in ("attempted", "failed", "correct")}
    row.update((name, m["value"]) for name, m in result["metrics"].items())
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return row, {key: env[key] for key in ENV_KEYS}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(entry: dict, wins: int, pairs: int, better: str, bound: float) -> str:
    """How the change reads on one metric, from its ``entry`` of sides'
    spreads, the pairs it wins and the metric's ``better`` and ``bound`` (a
    share of the parent's median), in this order of precedence:

    * ``gain``: at least ten pairs, the change wins at least nine tenths of
      them, and its median is better than the parent's by more than the
      parent's interquartile range;
    * ``worse``: the change's median is worse than the parent's by more than
      the bound;
    * ``unresolved``: the parent's interquartile range is wider than the
      bound, so a worsening within it could not be told from noise;
    * ``level``: any other case.
    """
    parent, change = entry["parent"], entry["change"]
    sign = 1 if better == "lower" else -1
    gap = sign * (parent["median"] - change["median"])  # > 0 where the change is better
    if pairs >= 10 and 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if -gap > bound * parent["median"]:
        return "worse"
    if parent["q3"] - parent["q1"] > bound * parent["median"]:
        return "unresolved"
    return "level"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (the ``end_to_end`` entries of
    ``BENCHMARK.json``: ``name``, ``better`` "lower" or "higher", ``bound``):
    each side's median and quartiles, the pairs the change wins, the ratio of
    the medians and the :func:`verdict`."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        entry = {side: spread(values[side]) for side in SIDES}
        entry["change_better_in"] = f"{wins} of {len(runs)} pairs"
        entry["change_over_parent_median"] = (entry["change"]["median"]
                                              / entry["parent"]["median"])
        entry["verdict"] = verdict(entry, wins, len(runs), metric["better"], metric["bound"])
        summary[name] = entry
    return summary


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True, help="pairs to run, at least 2")
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0, >= 0")
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    env = None
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}, seed {seed}", file=sys.stderr)
            try:
                results[side], run_env = run_side(trees[side], args.workload, seed,
                                                  args.seconds)
            except RunFailed as exc:
                print(exc, file=sys.stderr)
                return 1
            env = env or run_env
        runs.append({"seed": seed, "first": order[0],
                     **{side: results[side] for side in SIDES},
                     "source_sha256": {side: source_sha256(trees[side]) for side in SIDES}})
    command = "python3 " + " ".join(bench_argv(args.workload, "S", args.seconds))
    record = {"command": command, "env": env,
              args.workload: {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
