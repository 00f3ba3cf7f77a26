"""Each narrative script under demos/ runs to completion."""
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
