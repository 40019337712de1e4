"""scripts/pinned_outputs.py: its runs parse, what --compare reports for each
file, and the bytes of every output against the committed digests, at 1
and at 2 BLAS threads.

``pinned_digests.json`` holds the sha256 of each output and the environment
it was written in, and no thread count: every output has the same bytes at
1 and at 2 BLAS threads.  The digest test checks that on the pinned outputs,
and the thread probe on sums far longer than they reach.  A change that
moves bits on purpose re-records the file with::

    PYTHONPATH=src python tests/test_pinned_outputs.py

which runs the script at 1 and at 2 BLAS threads and rewrites the file only
if both runs agree; the change then names the moved files, and why, in
CHANGES.md.
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from detavg.cli import build_parser
from detavg.oracle import random_model

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "pinned_outputs.py"
DIGESTS = Path(__file__).resolve().parent / "pinned_digests.json"


def load_script():
    spec = importlib.util.spec_from_file_location("pinned_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_identical_moved_and_missing_files(tmp_path, capsys):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for d in (old, new):
        (d / "same.csv").write_text("a,b\n1.5,2\n")
    (old / "moved.csv").write_text("m,err\n8,0.25\n16,4.0\n32,1\n")
    (new / "moved.csv").write_text("m,err\n8,0.2500000000000001\n16,4.5\n32,1\n")
    (old / "side.json").write_text('{\n  "c": 2.0,\n  "m": [8, 16]\n}\n')
    (new / "side.json").write_text('{\n  "c": 3.0,\n  "m": [8, 16]\n}\n')
    (old / "gone.csv").write_text("x\n")
    assert script.run(["--compare", str(old), str(new)]) == 1
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines == {
        "gone.csv": "missing from NEW",
        "moved.csv": "2 of 8 cells moved, largest relative move 0.12",
        "same.csv": "identical",
        "side.json": "1 of 5 cells moved, largest relative move 0.5",
    }
    (old / "gone.csv").unlink()
    for name in ("moved.csv", "side.json"):
        (new / name).write_bytes((old / name).read_bytes())
    assert script.run(["--compare", str(old), str(new)]) == 0


def test_every_run_parses_under_the_cli(capsys):
    # a renamed or dropped flag fails here, without a run, rather than
    # halfway through writing the pinned outputs
    parser = build_parser()
    script = load_script()
    runs = [(name, [*argv, "--out", name]) for name, argv in script.RUNS.items()]
    runs += list(script.STDOUT_RUNS.items())
    for name, argv in runs:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: {argv} does not parse: {capsys.readouterr().err}")
        assert args.command == argv[0]


def test_identities_all_d_draws_every_dimension():
    # the suite draws its models from default_rng(seed) in order, so the
    # argv alone fixes which dimensions' deviation stacks the file pins
    argv = load_script().STDOUT_RUNS["identities_all_d.txt"]
    args = build_parser().parse_args(argv)
    assert args.command == "verify-identities"
    rng = np.random.default_rng(args.seed)
    dims = [random_model(rng, args.max_n, args.max_d).dim for _ in range(args.models)]
    assert sorted(set(dims)) == [1, 2, 3, 4, 5]


def environment() -> dict:
    """What the bytes may depend on, besides the code: numpy and its BLAS
    build, the CPU architecture, and the CPU features numpy finds at run
    time, since numpy and a DYNAMIC_ARCH OpenBLAS pick their kernels by
    them."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "machine": platform.machine(),
        "cpu_features": config["SIMD Extensions"]["found"],
    }


# the BLAS thread counts every output must keep its bytes at
THREADS = (1, 2)


def blas_env(threads: int) -> dict[str, str]:
    """The environment of a fresh process at ``threads`` BLAS threads that
    imports detavg from this tree."""
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}


def pinned_run(outdir: Path, threads: int) -> dict[str, str]:
    """sha256 of every file the script writes into ``outdir``, run in a
    fresh process at ``threads`` BLAS threads."""
    proc = subprocess.run([sys.executable, str(SCRIPT), str(outdir)], env=blas_env(threads),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The names whose digests differ, or that only one of ``a``, ``b`` has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def test_outputs_keep_their_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = pinned["environment"]
    here = environment()
    for field, value in here.items():
        if value != recorded[field]:
            pytest.skip(f"digests recorded with {field} {recorded[field]!r}, here {value!r}")
    for threads in THREADS:
        moved = differing(pinned["sha256"], pinned_run(tmp_path / str(threads), threads))
        assert moved == [], (f"at {threads} BLAS threads, outputs whose bytes moved, "
                             f"are missing or are new: {moved}")


# sums over n = 200,000 rows and m = 100,000 machines, long enough that
# OpenBLAS splits a gemv across threads; the pinned outputs stop at n = 2000
THREAD_PROBE = """
import hashlib, json
import numpy as np
from detavg.averaging import weighted_means
from detavg.dataio import synth_regression
from detavg.objective import Dataset, LossKind, Objective

data = synth_regression(200000, 10, 1.0, seed=3)
w = np.full(10, 0.1)
rng = np.random.default_rng(5)
values = {
    "square gradient": Objective(data).gradient(w),
    "logistic gradient": Objective(Dataset(data.X, (data.y > 0).astype(float)),
                                   LossKind.LOGISTIC).gradient(w),
    "weighted means": weighted_means(rng.standard_normal((100000, 10)),
                                     rng.standard_normal(100000), [1000, 100000]),
}
print(json.dumps({name: hashlib.sha256(v.tobytes()).hexdigest() for name, v in values.items()}))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS does not split a sum")
def test_long_sums_keep_their_bits_at_any_thread_count():
    found = []
    for threads in THREADS:
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=blas_env(threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        found.append(json.loads(proc.stdout))
    assert differing(*found) == [], "sums whose bits move between 1 and 2 BLAS threads"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as outdir:
        runs = [pinned_run(Path(outdir) / str(threads), threads) for threads in THREADS]
    if differing(*runs):
        sys.exit(f"not re-recorded: outputs whose bytes differ between {THREADS[0]} and "
                 f"{THREADS[1]} BLAS threads: {', '.join(differing(*runs))}")
    record = {"environment": environment(), "sha256": runs[0]}
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
