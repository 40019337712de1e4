"""Write the CLI outputs whose bytes a refactor must keep.

Usage::

    PYTHONPATH=src python scripts/pinned_outputs.py OUTDIR

Runs a fixed list of argv through ``detavg.cli.main`` from inside OUTDIR,
so every CSV, every ``newton-sweep`` sidecar and the d=65 data file they
read land there, and the sidecars record relative paths only.  Run it at
two commits into two directories and compare them file by file with
``cmp`` (see the README).  It takes a few seconds on one core.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from detavg import dataio
from detavg.cli import main
from detavg.objective import Dataset

DESK = "2000,10,1.0"  # the acceptance instance: n=2000, d=10, unit noise
D65 = "d65.svm"  # standardized degree-2 expansion of DESK at seed 0
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


def write_d65(path: Path) -> None:
    base = dataio.synth_regression(2000, 10, 1.0, seed=0)
    X = dataio.standardize(dataio.expand_degree2(base)).X
    path.write_text(dataio.serialize_libsvm(Dataset(X=X, y=base.y)), encoding="utf-8")


def run(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    write_d65(Path(D65))
    for name, args in RUNS.items():
        code = main([*args, "--out", name])
        if code != 0:
            print(f"{name}: the CLI exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
