"""Print the benchmark's history from the committed ``BENCH_*.json`` records.

Usage::

    python3 scripts/bench_history.py [BENCH_FILE ...]

Without arguments it reads every ``BENCH_*.json`` at the root of the
repository.  Files are taken in the order of the number in their name.  For
each workload, in the order of ``BENCHMARK.json``, it prints one line per
group of runs a file holds: the file, the group's path in the file, the
number of change-side runs, and their median ``op_p50_s`` and
``peak_rss_mb``.  The records were written in three layouts, and every
group of each is read:

- alternating pairs: a ``runs`` list under the workload's name, each run a
  ``parent`` and a ``change`` mapping of metric names to values (written by
  ``scripts/bench_pairs.py`` and by hand in its layout);
- pairs as ``[op_p50_s, peak_rss_mb]`` lists, ``runs_op_p50_s_and_peak_rss_mb``
  beside a ``command`` that names the workload;
- the printed tables of ``bench/run.py --workload all``, ``stdout`` lines
  ``WORKLOAD METRIC VALUE UNIT`` under a key naming the side (``change``,
  ``change-1``, ...) or inside a ``change`` mapping.

Groups without both metrics (traced runs, set-up probes) are skipped.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_p50_s", "peak_rss_mb")
_TABLE_LINE = re.compile(r"(\S+)\s+(op_p50_s|peak_rss_mb)\s+(\S+)\s+\S+")
_WORKLOAD_ARG = re.compile(r"--workload (\S+)")


def pr_number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def committed_files() -> list[Path]:
    return sorted(ROOT.glob("BENCH_*.json"), key=pr_number)


def _groups(node, path: tuple[str, ...], side: str | None):
    """Yield ``(path, workload, values)`` for every group of change-side runs
    under the mapping ``node``, ``values`` a list of ``{metric: value}`` per
    run; ``side`` is the side named by an enclosing key, if any."""
    runs = node.get("runs")
    if isinstance(runs, list) and runs and isinstance(runs[0].get("change"), dict):
        yield path, path[-1], [run["change"] for run in runs]
    lists = node.get("runs_op_p50_s_and_peak_rss_mb")
    if lists:
        workload = _WORKLOAD_ARG.search(node["command"]).group(1)
        yield path, workload, [dict(zip(METRICS, run["change"])) for run in lists]
    stdout = node.get("stdout")
    if isinstance(stdout, dict):
        tables = [lines for key, lines in stdout.items() if key.startswith("change")]
    else:
        tables = [stdout] if stdout and side == "change" else []
    if tables:
        per_workload: dict[str, list[dict]] = {}
        for lines in tables:
            runs_here: dict[str, dict] = {}
            for line in lines:
                match = _TABLE_LINE.fullmatch(line.strip())
                if match:
                    workload, metric, value = match.groups()
                    runs_here.setdefault(workload, {})[metric] = float(value)
            for workload, values in runs_here.items():
                per_workload.setdefault(workload, []).append(values)
        for workload, values in per_workload.items():
            yield path + ("stdout",), workload, values
    for key, child in node.items():
        if isinstance(child, dict):
            yield from _groups(child, path + (key,), key if key in ("parent", "change")
                               else side)


def history(files: list[Path]) -> list[dict]:
    """One row per group of change-side runs that carries both metrics:
    ``file``, ``group`` (its path in the file), ``workload``, ``runs`` and
    the median of each metric, files in the order given."""
    rows = []
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        for group, workload, values in _groups(record, (), None):
            values = [v for v in values if all(m in v for m in METRICS)]
            if values:
                row = {"file": path.name, "group": "/".join(group), "workload": workload,
                       "runs": len(values)}
                row.update((m, statistics.median(v[m] for v in values)) for m in METRICS)
                rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = sorted((Path(a) for a in argv), key=pr_number) if argv else committed_files()
    rows = history(files)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    order = [w["name"] for w in spec["workloads"]]
    order += sorted({row["workload"] for row in rows} - set(order))
    for workload in order:
        print(workload)
        print(f"  {'file':<14} {'runs':>4} {'op_p50_s':>10} {'peak_rss_mb':>11}  group")
        for row in rows:
            if row["workload"] == workload:
                print(f"  {row['file']:<14} {row['runs']:>4} {row['op_p50_s']:>10.6g} "
                      f"{row['peak_rss_mb']:>11.6g}  {row['group']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
