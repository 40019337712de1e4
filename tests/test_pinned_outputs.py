"""scripts/pinned_outputs.py: its runs parse, and what --compare reports for each file."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from detavg.cli import build_parser
from detavg.oracle import random_model

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pinned_outputs.py"


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
