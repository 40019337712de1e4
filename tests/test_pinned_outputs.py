"""scripts/pinned_outputs.py: its runs parse, what --compare reports for each
file, and the bytes of every output against the committed digests.

``pinned_digests.json`` holds the sha256 of each output and the environment
it was written in.  A change that moves bits on purpose re-records it with::

    PYTHONPATH=src python tests/test_pinned_outputs.py

which runs the script at the recorded BLAS thread count and rewrites the
file; the change then names the moved files, and why, in CHANGES.md.
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


def pinned_run(outdir: Path, threads: int) -> dict[str, str]:
    """sha256 of every file the script writes into ``outdir``, run in a
    fresh process at ``threads`` BLAS threads: a long dot product's last
    bits follow how BLAS splits it across threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(SCRIPT), str(outdir)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


def test_outputs_keep_their_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = pinned["environment"]
    here = environment()
    for field, value in here.items():
        if value != recorded[field]:
            pytest.skip(f"digests recorded with {field} {recorded[field]!r}, here {value!r}")
    found = pinned_run(tmp_path, recorded["blas_threads"])
    moved = sorted(name for name in pinned["sha256"].keys() | found.keys()
                   if pinned["sha256"].get(name) != found.get(name))
    assert moved == [], f"outputs whose bytes moved, are missing or are new: {moved}"


if __name__ == "__main__":
    threads = (json.loads(DIGESTS.read_text(encoding="utf-8"))["environment"]["blas_threads"]
               if DIGESTS.exists() else 1)
    with tempfile.TemporaryDirectory() as outdir:
        record = {"environment": {**environment(), "blas_threads": threads},
                  "sha256": pinned_run(Path(outdir), threads)}
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
