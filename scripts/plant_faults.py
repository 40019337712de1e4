"""Plant one known fault at a time in a copy of the tree and run tier-1 on it.

Usage::

    python3 scripts/plant_faults.py            # every fault in FAULTS
    python3 scripts/plant_faults.py 3 7        # only faults 3 and 7
    python3 scripts/plant_faults.py --list     # print the numbered list

Each entry of :data:`FAULTS` is ``(file, old, new, what)``: ``old`` is text
that occurs exactly once in ``file`` (a path from the root of the tree),
``new`` replaces it, and ``what`` says what the fault breaks.  For each
fault the script copies the tree into a temporary directory, leaving out
``.git``, the caches and ``.bench_work``, applies the fault, runs tier-1
there with ``-x``, and prints ``caught`` (tier-1 failed) or ``survived``
(tier-1 passed), with the run's wall time.  It exits 1 if any fault
survived.  A surviving fault costs one full tier-1 run, so this is no part
of tier-1; ``tests/test_plant_faults.py`` only checks that each ``old``
still occurs exactly once, so the list cannot drift from the code.

A survivor either gets a test that fails on it, or is recorded in
``CHANGES.md`` as equivalent: a fault that changes no behaviour a caller
can observe.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# what a copy leaves out: version control, caches and the benchmark's workdir
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_work", ".*.detavg-cache", ".*.detavg-cache.*")

FAULTS: list[tuple[str, str, str, str]] = [
    # the nine faults of ROADMAP item 10
    ("src/detavg/averaging.py",
     "w = np.exp(logs - logs.max())",
     "w = np.exp(logs - logs[0])",
     "log-weights shifted by the first weight, not the largest: a heavy "
     "weight overflows the merge"),
    ("src/detavg/sketch.py",
     "t = start + exc.index\n",
     "t = start + exc.index + 1\n",
     "a fleet names the machine after the one that failed its factorization"),
    ("src/detavg/newton.py",
     "if not (np.isfinite(step).all() and math.isfinite(log_det)):",
     "if False:",
     "one machine's step or log-weight may be inf or NaN"),
    ("src/detavg/linalg.py",
     "return float(_scaled_back(np.linalg.norm, np.asarray(v, dtype=float)))",
     "return float(np.linalg.norm(np.asarray(v, dtype=float)))",
     "a norm past sqrt(float max) reads inf though it fits in a float"),
    ("src/detavg/dataio.py",
     "if not 0 <= noise_sd < math.inf:",
     "if noise_sd < 0 or noise_sd == math.inf:",
     "a NaN --synth noise is let through"),
    ("src/detavg/dataio.py",
     "if count > MAX_ENTRIES:",
     "if count >= MAX_ENTRIES:",
     "refuse_above_cap refuses a count of exactly 2^27"),
    ("src/detavg/dataio.py",
     "if len(labels) * width > MAX_ENTRIES:",
     "if len(labels) * width >= MAX_ENTRIES:",
     "parse_libsvm refuses a file of exactly 2^27 entries"),
    ("src/detavg/uq.py",
     "+ ridge > C.shape[-1] / np.finfo(float).max))",
     "+ ridge > 0))",
     "the precision floor lets through a ridged inverse whose trace overflows"),
    ("src/detavg/uq.py",
     "    ridge = eta / np.sqrt(m)\n    return local_fleet(",
     "    ridge = eta / m\n    return local_fleet(",
     "the fleet checks its floor at eta/m, not at its smallest ridge eta/sqrt(m)"),
    # one per refusal that tier-1 reached only from these tests on
    ("src/detavg/cli.py",
     "        values = [int(tok) for tok in text.split(\",\") if tok.strip()]\n"
     "    except ValueError:",
     "        values = [int(tok) for tok in text.split(\",\") if tok.strip()]\n"
     "    except TypeError:",
     "--m 8,x exits 1 with int()'s message, not one naming --m"),
    ("src/detavg/cli.py",
     "    if not values:\n        raise ValueError(\"--m is empty\")",
     "    if values is None:\n        raise ValueError(\"--m is empty\")",
     "--m , runs a sweep over no fleet size"),
    ("src/detavg/cli.py",
     "if len(parts) != 3:",
     "if len(parts) > 3:",
     "--synth 10,3 ends in an IndexError traceback"),
    ("src/detavg/cli.py",
     "        return int(parts[0]), int(parts[1]), float(parts[2])\n"
     "    except ValueError:",
     "        return int(parts[0]), int(parts[1]), float(parts[2])\n"
     "    except TypeError:",
     "--synth 10,x,1.0 exits 1 with int()'s message, not one naming --synth"),
    ("src/detavg/cli.py",
     "if not math.isfinite(step_norm):",
     "if math.isnan(step_norm):",
     "newton-sweep goes on past an infinite exact-step norm"),
    ("src/detavg/uq.py",
     "    except NotPositiveDefinite as exc:\n        raise SingularCovariance(",
     "    except SingularCovariance as exc:\n        raise SingularCovariance(",
     "a covariance that fails its factorization is not named singular"),
    ("src/detavg/newton.py",
     "    if not norm <= target < math.inf:\n        raise NoConvergence(",
     "    if norm is None:\n        raise NoConvergence(",
     "exact Newton returns an iterate that missed its tolerance"),
    ("src/detavg/newton.py",
     "    for _ in range(_NEWTON_ITERS):\n        if norm <= target < math.inf:",
     "    for _ in range(_NEWTON_ITERS - 1):\n        if norm <= target < math.inf:",
     "exact Newton takes one step fewer than its budget"),
    ("src/detavg/objective.py",
     "if X.ndim != 2:",
     "if X.ndim > 2:",
     "a 1-D X ends in an IndexError, not a ValueError"),
    ("src/detavg/sketch.py",
     "if mask.n != data.n:",
     "if mask.n > data.n:",
     "local_covariance takes a mask over fewer rows than the data"),
    ("src/detavg/oracle.py",
     "if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:",
     "if matrix.ndim != 2:",
     "a non-square component is accepted"),
    ("src/detavg/oracle.py",
     "if c.matrix.shape != (d, d):",
     "if c.matrix.ndim != 2:",
     "a model mixes components of different dimensions"),
    ("src/detavg/oracle.py",
     "if len(gammas) != len(mats):",
     "if len(gammas) > len(mats):",
     "bernoulli drops the components past a short gamma list"),
    ("src/detavg/oracle.py",
     "if g == 1.0:",
     "if g > 1.0:",
     "gamma = 1 builds a two-point law with a zero-probability outcome"),
    ("src/detavg/cli.py",
     "if isinstance(value, (bool, np.bool_)):",
     "if isinstance(value, np.bool_):",
     "a Python bool is written to a table as 1 or 0"),
    ("src/detavg/linalg.py",
     "det = np.ones(M.shape[:-2])",
     "det = np.zeros(M.shape[:-2])",
     "the determinant of a 0x0 matrix reads 0"),
]


def plant(tree: Path, fault: tuple[str, str, str, str]) -> None:
    """Apply ``fault`` to the copy ``tree``; its old text must occur once."""
    file, old, new, _ = fault
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the fault's old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_fault(fault: tuple[str, str, str, str]) -> tuple[bool, float]:
    """(caught, seconds) of tier-1 on a copy of the tree with ``fault``."""
    with tempfile.TemporaryDirectory(prefix="plant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        plant(tree, fault)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        return proc.returncode != 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("faults", nargs="*", type=int,
                        help="numbers of the faults to plant (default: all)")
    parser.add_argument("--list", action="store_true", help="print the faults and exit")
    args = parser.parse_args(argv)
    chosen = args.faults or range(len(FAULTS))
    if args.list:
        for i in chosen:
            print(f"{i:2d}  {FAULTS[i][0]}: {FAULTS[i][3]}")
        return 0
    survived = 0
    for i in chosen:
        caught, seconds = run_fault(FAULTS[i])
        survived += not caught
        print(f"{i:2d}  {'caught' if caught else 'survived':8s} {seconds:6.1f} s  "
              f"{FAULTS[i][0]}: {FAULTS[i][3]}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
