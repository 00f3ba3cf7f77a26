"""Each narrative script under demos/, and the README's quick start, runs to
completion."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridfactors

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    proc = subprocess.run(
        [sys.executable, str(demo)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no scripts under demos/"


def test_readme_quick_start_runs():
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridfactors.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the published maxima: 44.922 MW on branch 9 before splitting bus 5,
    # 42.233 MW on branch 3 after (100 MVA base)
    before, after = (ast.literal_eval(line) for line in proc.stdout.splitlines())
    assert before[0] == 9 and before[1] == pytest.approx(0.44922, abs=1e-5)
    assert after[0] == 3 and after[1] == pytest.approx(0.42233, abs=1e-5)
