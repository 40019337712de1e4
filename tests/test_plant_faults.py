"""scripts/plant_faults.py: every planted fault still matches the code.

The harness itself runs tier-1 once per fault and is no part of tier-1;
this only checks that each fault's old text occurs exactly once in its
file, so a rename or an edit of the code shows here rather than as a
fault that silently plants nothing.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "plant_faults.py"


def load_script():
    spec = importlib.util.spec_from_file_location("plant_faults", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FAULTS = load_script().FAULTS


@pytest.mark.parametrize("fault", FAULTS, ids=[f"{i}-{f[0].rsplit('/', 1)[-1]}"
                                               for i, f in enumerate(FAULTS)])
def test_each_fault_plants_once(fault):
    file, old, new, what = fault
    assert old != new and what
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1


def test_faults_are_distinct():
    assert len({(file, old) for file, old, _, _ in FAULTS}) == len(FAULTS)
