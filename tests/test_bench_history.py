"""scripts/bench_history.py over the committed records; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_history.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_history", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_history_names_every_record_and_keeps_the_pair_summaries(capsys):
    script = load_script()
    files = sorted(script.ROOT.glob("BENCH_*.json"))
    assert script.main([]) == 0
    out = capsys.readouterr().out
    for path in files:
        assert f"  {path.name} " in out, path.name
    # BENCH_22's pairs, as scripts/bench_pairs.py summarized them
    record = json.loads((script.ROOT / "BENCH_22.json").read_text(encoding="utf-8"))
    rows = script.history([script.ROOT / "BENCH_22.json"])
    for workload, pairs in record["alternating_pairs"].items():
        summary = pairs[workload]["summary"]
        row, = [r for r in rows if r["workload"] == workload and r["runs"] == 10]
        for metric in script.METRICS:
            assert row[metric] == summary[metric]["change"]["median"], (workload, metric)
            assert f"{row[metric]:.6g}" in out
    # files in the order of their numbers, each one read
    names = [row["file"] for row in script.history(script.committed_files())]
    assert names == sorted(names, key=lambda name: int(name[6:-5]))
    assert {row["file"] for row in script.history(files)} == {path.name for path in files}


# the keys every record from BENCH_25 on holds; extra keys are allowed
RECORD_KEYS = {"what", "how", "claim", "env", "alternating_pairs", "verdicts", "workload_all"}


def test_records_from_25_on_share_one_layout():
    script = load_script()
    recent = [path for path in script.committed_files() if script.pr_number(path) >= 25]
    assert recent
    for path in recent:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert RECORD_KEYS <= record.keys(), (path.name, sorted(RECORD_KEYS - record.keys()))
