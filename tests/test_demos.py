"""Every demo script and the README's Python examples run to completion
against the current library."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_examples_run_in_order(tmp_path, monkeypatch):
    # each block uses names of the blocks before it, so they share one
    # namespace, as a reader pasting them into one session would
    assert len(README_BLOCKS) == 6
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(README_BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
