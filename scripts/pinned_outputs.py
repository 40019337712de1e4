"""Write the CLI outputs whose bytes a refactor must keep.

Usage::

    PYTHONPATH=src python scripts/pinned_outputs.py OUTDIR
    PYTHONPATH=src python scripts/pinned_outputs.py --compare OLD NEW

Runs a fixed list of argv through ``detavg.cli.main`` from inside OUTDIR,
so every CSV, every ``newton-sweep`` sidecar and the two data files they
read (a dense d=65 file and a sparse one with comments, a blank line and
tabs) land there, and the sidecars record relative paths only.  The
``verify-identities`` runs print their report instead, and each one's
standard output is written to a ``.txt`` file there.  It takes a few
seconds on one core.  Run it at two commits into two directories, then
``--compare`` them: for each file it prints ``identical`` (the same bytes)
or how many cells moved and the largest relative move |new - old| / |old|
among them, a cell being a value between commas, colons, brackets, quotes
or whitespace, so CSV rows, JSON sidecars and libsvm lines all split into
their values.  It exits 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import io
import math
import os
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from detavg import dataio
from detavg.cli import main
from detavg.objective import Dataset

DESK = "2000,10,1.0"  # the acceptance instance: n=2000, d=10, unit noise
D65 = "d65.svm"  # standardized degree-2 expansion of DESK at seed 0
SPARSE = "sparse.svm"  # varying indices per line, some lines messy
EMPTY_MASKS = ["--synth", "60,3,1.0", "--k", "2", "--m", "2,4,8", "--trials", "20",
               "--seed", "4"]  # about one mask in seven keeps no row

RUNS = {
    "step_sweep.csv": ["newton-sweep", "--synth", DESK, "--k", "200", "--lambda", "auto",
                       "--m", "8,16,32,64,128,256,512,1024", "--trials", "50",
                       "--scheme", "both", "--seed", "0"],
    "uq_trace.csv": ["uq-sweep", "--synth", DESK, "--k", "200",
                     "--m", "16,32,64,128,256,512,1024", "--trials", "25", "--eta", "1.0",
                     "--statistic", "trace", "--seed", "0"],
    "uq_diagonal.csv": ["uq-sweep", "--synth", DESK, "--k", "200", "--m", "16,64,256",
                        "--trials", "10", "--statistic", "diagonal", "--seed", "0"],
    "converge_det.csv": ["newton-converge", "--synth", DESK, "--loss", "logistic",
                         "--lambda", "auto", "--k", "200", "--m", "256", "--iters", "10",
                         "--scheme", "determinantal", "--seed", "0"],
    "converge_uniform.csv": ["newton-converge", "--synth", DESK, "--loss", "logistic",
                             "--lambda", "auto", "--k", "200", "--m", "256", "--iters", "10",
                             "--scheme", "uniform", "--seed", "0"],
    "converge_exact.csv": ["newton-converge", "--synth", DESK, "--loss", "logistic",
                           "--lambda", "auto", "--k", "2000", "--m", "1", "--iters", "10",
                           "--scheme", "determinantal", "--seed", "0"],
    "step_sweep_logistic.csv": ["newton-sweep", "--synth", DESK, "--loss", "logistic",
                                "--lambda", "auto", "--k", "200", "--m", "8,64,512",
                                "--trials", "5", "--scheme", "both", "--seed", "1"],
    "empty_step_sweep.csv": ["newton-sweep", *EMPTY_MASKS, "--lambda", "0.5",
                             "--scheme", "both"],
    "empty_step_sweep_logistic.csv": ["newton-sweep", *EMPTY_MASKS, "--loss", "logistic",
                                      "--lambda", "0.5", "--scheme", "both"],
    "empty_uq_diagonal.csv": ["uq-sweep", *EMPTY_MASKS, "--statistic", "diagonal"],
    "d65_step_sweep.csv": ["newton-sweep", "--dataset", D65, "--k", "400", "--lambda", "auto",
                           "--m", "8,32,128", "--trials", "3", "--scheme", "both",
                           "--seed", "2"],
    "d65_uq_trace.csv": ["uq-sweep", "--dataset", D65, "--k", "400", "--m", "8,32,128",
                         "--trials", "3", "--statistic", "trace", "--seed", "2"],
    "sparse_step_sweep.csv": ["newton-sweep", "--dataset", SPARSE, "--k", "100",
                              "--lambda", "auto", "--m", "8,32,128", "--trials", "3",
                              "--scheme", "both", "--seed", "3"],
    "d65_converge.csv": ["newton-converge", "--dataset", D65, "--loss", "logistic",
                         "--lambda", "auto", "--k", "400", "--m", "256", "--iters", "3",
                         "--scheme", "determinantal", "--seed", "0"],
    # seeds past one 32-bit word: 2^32 (two words) and 2^128 (five, past the
    # four-word pool of numpy's SeedSequence)
    "wide_seed_step_sweep.csv": ["newton-sweep", "--synth", "60,3,1.0", "--k", "2",
                                 "--m", "2,4,8", "--trials", "20", "--seed", str(2**32)],
    "wide_seed_uq_trace.csv": ["uq-sweep", "--synth", "60,3,1.0", "--k", "6",
                               "--m", "2,4,8", "--trials", "20", "--seed", str(2**128)],
}

STDOUT_RUNS = {
    "identities.txt": ["verify-identities", "--models", "50", "--max-n", "8", "--max-d", "3",
                       "--seed", "0"],
    # the second and third models (13824 outcomes each) take two chunks each
    "identities_spanning.txt": ["verify-identities", "--models", "3", "--max-n", "12",
                                "--max-d", "1", "--seed", "27"],
    "identities_d5.txt": ["verify-identities", "--models", "4", "--max-n", "4", "--max-d", "5",
                          "--seed", "2"],
    # 5, 1, 5, 5 and 4 models of d = 1..5, so every dimension's stack of
    # deviations is folded
    "identities_all_d.txt": ["verify-identities", "--models", "20", "--max-n", "6",
                             "--max-d", "5", "--seed", "3"],
}


def write_d65(path: Path) -> None:
    base = dataio.synth_regression(2000, 10, 1.0, seed=0)
    X = dataio.standardize(dataio.expand_degree2(base)).X
    path.write_text(dataio.serialize_libsvm(Dataset(X=X, y=base.y)), encoding="utf-8")


def write_sparse(path: Path) -> None:
    """700 data lines of 3 to 12 pairs among 40 columns.  Lines 300-339 are
    tab-separated, and comment lines, a blank line and a trailing comment
    sit among them, so the middle block of 256 lines is not plain."""
    rng = np.random.default_rng(7)
    lines = []
    for i in range(700):
        columns = np.sort(rng.choice(40, rng.integers(3, 13), replace=False)) + 1
        pairs = [f"{j}:{v!r}" for j, v in zip(columns, rng.standard_normal(len(columns)).tolist())]
        line = " ".join([repr(float(rng.standard_normal())), *pairs])
        lines.append(line.replace(" ", "\t") if 300 <= i < 340 else line)
    lines[350] += "  # a trailing comment 1:2"
    for at, extra in ((330, ""), (320, "# a comment line"), (310, "#")):
        lines.insert(at, extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cells(path: Path) -> list[str]:
    return [cell for cell in re.split(r'[\s,:\[\]{}"]+', path.read_text(encoding="utf-8"))
            if cell]


def relative_move(old: str, new: str) -> float:
    """|new - old| / |old| of two numeric cells; inf for a word that changed
    or a move away from zero."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a else (0.0 if b == 0 else math.inf)


def describe(old: Path, new: Path) -> str:
    if not new.exists():
        return "missing from NEW"
    if not old.exists():
        return "missing from OLD"
    if old.read_bytes() == new.read_bytes():
        return "identical"
    a, b = cells(old), cells(new)
    if len(a) != len(b):
        return f"{len(a)} cells against {len(b)}"
    moves = [relative_move(x, y) for x, y in zip(a, b) if x != y]
    return (f"{len(moves)} of {len(a)} cells moved, "
            f"largest relative move {max(moves, default=0.0):.2g}")


def compare(old_dir: Path, new_dir: Path) -> int:
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    lines = [(name, describe(old_dir / name, new_dir / name)) for name in names]
    width = max(len(name) for name in names)
    for name, line in lines:
        print(f"{name:<{width}}  {line}")
    return int(any(line != "identical" for _, line in lines))


def run(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    write_d65(Path(D65))
    write_sparse(Path(SPARSE))
    for name, args in RUNS.items():
        code = main([*args, "--out", name])
        if code != 0:
            print(f"{name}: the CLI exited {code}", file=sys.stderr)
            return 1
    for name, args in STDOUT_RUNS.items():
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(args)
        if code != 0:
            print(f"{name}: the CLI exited {code}", file=sys.stderr)
            return 1
        Path(name).write_text(stdout.getvalue(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
