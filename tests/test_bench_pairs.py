"""scripts/bench_pairs.py: the summary and verdicts of fixed runs, the pair
order and the environment block."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(parent_p50, change_p50, parent_rate, change_rate):
    return {"parent": {"op_p50_s": parent_p50, "machines_per_s": parent_rate},
            "change": {"op_p50_s": change_p50, "machines_per_s": change_rate}}


def metrics(*names_better, bound=0.2):
    return [{"name": name, "better": better, "bound": bound}
            for name, better in zip(names_better[::2], names_better[1::2])]


def test_summary_of_fixed_runs():
    script = load_script()
    runs = [pair(0.012, 0.010, 250.0, 300.0), pair(0.013, 0.011, 240.0, 240.0),
            pair(0.011, 0.012, 260.0, 250.0), pair(0.014, 0.009, 230.0, 310.0),
            pair(0.010, 0.010, 270.0, 280.0)]
    summary = script.summarize(runs, metrics("op_p50_s", "lower", "machines_per_s", "higher"))
    assert list(summary) == ["op_p50_s", "machines_per_s"]
    p50 = summary["op_p50_s"]
    # parent 0.010 0.011 0.012 0.013 0.014; change 0.009 0.010 0.010 0.011 0.012
    assert p50["parent"] == pytest.approx({"median": 0.012, "q1": 0.011, "q3": 0.013})
    assert p50["change"] == pytest.approx({"median": 0.010, "q1": 0.010, "q3": 0.011})
    # the tie in the last pair counts for neither side
    assert p50["change_better_in"] == "3 of 5 pairs"
    assert p50["change_over_parent_median"] == pytest.approx(0.010 / 0.012)
    # five pairs are too few for a gain, and the parent spreads 0.002 / 0.012
    # = 17%, within the bound
    assert p50["verdict"] == "level"
    rate = summary["machines_per_s"]
    assert rate["parent"] == pytest.approx({"median": 250.0, "q1": 240.0, "q3": 260.0})
    assert rate["change"] == pytest.approx({"median": 280.0, "q1": 250.0, "q3": 300.0})
    assert rate["change_better_in"] == "3 of 5 pairs"
    assert rate["change_over_parent_median"] == pytest.approx(280.0 / 250.0)
    assert rate["verdict"] == "level"
    # inclusive quartiles interpolate between the middle values
    four = [pair(x, x, 1.0, 1.0) for x in (1.0, 2.0, 3.0, 4.0)]
    assert script.summarize(four, metrics("op_p50_s", "lower"))["op_p50_s"]["parent"] == {
        "median": 2.5, "q1": 1.75, "q3": 3.25}


def ten_pairs(parent, change):
    return [pair(p, c, p, c) for p, c in zip(parent, change)]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # q1 0.9925, q3 1.01


@pytest.mark.parametrize("change, lower, higher", [
    # 9 of 10 pairs won, gap 0.1 past the parent's range 0.0175: a gain, and
    # read the other way 10% worse, within the bound
    ([0.9] * 9 + [1.5], "gain", "level"),
    # 25% below the parent: past the bound where higher is better
    ([0.75] * 10, "gain", "worse"),
    # 8 of 10 won: no gain, and 10% better is within the bound
    ([0.9] * 8 + [1.5] * 2, "level", "level"),
    # 10 of 10 won, but the gap 0.01 is within the parent's range
    ([x - 0.01 for x in PARENT], "level", "level"),
    # the median 25% worse, past the bound of 20%
    ([1.25] * 10, "worse", "gain"),
    # 15% worse, within the bound
    ([1.15] * 10, "level", "gain"),
])
def test_verdicts_of_fixed_runs(change, lower, higher):
    script = load_script()
    runs = ten_pairs(PARENT, change)
    summary = script.summarize(runs, metrics("op_p50_s", "lower", "machines_per_s", "higher"))
    assert (summary["op_p50_s"]["verdict"], summary["machines_per_s"]["verdict"]) == (
        lower, higher)


def test_a_parent_spread_past_the_bound_is_unresolved():
    script = load_script()
    parent = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0, 1.0]  # q1 0.8, q3 1.3
    summary = script.summarize(ten_pairs(parent, [1.1] * 10), metrics("op_p50_s", "lower"))
    assert summary["op_p50_s"]["verdict"] == "unresolved"
    # a worsening past the bound is reported as such, whatever the spread
    summary = script.summarize(ten_pairs(parent, [1.3] * 10), metrics("op_p50_s", "lower"))
    assert summary["op_p50_s"]["verdict"] == "worse"


def test_pairs_alternate_and_record_each_tree(tmp_path, monkeypatch, capsys):
    script = load_script()
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        (trees[side] / "src" / "detavg" / "__pycache__").mkdir(parents=True)
        (trees[side] / "src" / "detavg" / "oracle.py").write_text(f"# {side}\n")
        (trees[side] / "src" / "detavg" / "__pycache__" / "x.pyc").write_bytes(b"\0")
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_p50_s", "better": "lower", "bound": 0.2}]}))
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return ({"attempted": 3, "failed": 0, "correct": True,
                 "op_p50_s": 2.0 if tree.name == "parent" else 1.0},
                {"python": "3.11.7", "nproc": len(calls)})

    monkeypatch.setattr(script, "run_side", fake_run)
    assert script.main([str(trees["parent"]), str(trees["change"]), "--workload", "w",
                        "--pairs", "3", "--seed", "7", "--seconds", "1"]) == 0
    assert calls == [("parent", "w", 7, 1.0), ("change", "w", 7, 1.0),
                     ("change", "w", 8, 1.0), ("parent", "w", 8, 1.0),
                     ("parent", "w", 9, 1.0), ("change", "w", 9, 1.0)]
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == ("python3 bench/run.py --workload w --seed S "
                                 "--seconds 1.0 --trace 0")
    # the environment block is the first run's
    assert record["env"] == {"python": "3.11.7", "nproc": 1}
    runs = record["w"]["runs"]
    assert [(run["seed"], run["first"]) for run in runs] == [
        (7, "parent"), (8, "change"), (9, "parent")]
    sha = runs[0]["source_sha256"]
    assert sha["parent"] != sha["change"]
    assert sha["parent"] == script.source_sha256(trees["parent"])
    # bytecode left by a run does not move the hash
    (trees["parent"] / "src" / "detavg" / "__pycache__" / "x.pyc").write_bytes(b"\1")
    assert script.source_sha256(trees["parent"]) == sha["parent"]
    assert record["w"]["summary"]["op_p50_s"]["change_better_in"] == "3 of 3 pairs"


def test_each_run_starts_without_bytecode(tmp_path, monkeypatch):
    # the tree's detavg bytecode is gone when the run starts, and the run is
    # told to write none, so both sides import detavg from source
    script = load_script()
    cache = tmp_path / "src" / "detavg" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "oracle.cpython-311.pyc").write_bytes(b"\0")
    calls = []

    class Done:
        returncode = 0
        stderr = ""
        env = {key: key.upper() for key in script.ENV_KEYS}
        stdout = "\n".join([
            "set-up", json.dumps({"env": {**env, "git_commit": None, "workload_seed": 3}}),
            json.dumps({"attempted": 4, "failed": 0, "correct": True,
                        "metrics": {"op_p50_s": {"value": 0.5}}})])

    def fake_run(argv, **kwargs):
        calls.append((argv[1:], kwargs["cwd"], kwargs["env"]["PYTHONDONTWRITEBYTECODE"],
                      cache.exists()))
        return Done()

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    row, env = script.run_side(tmp_path, "w", 3, 1.0)
    assert row == {"attempted": 4, "failed": 0, "correct": True, "op_p50_s": 0.5}
    # the run's own commit and seed stay out of the environment block
    assert env == Done.env
    assert calls == [(script.bench_argv("w", "3", 1.0), tmp_path, "1", False)]
