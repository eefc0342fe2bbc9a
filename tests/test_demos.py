"""Each demo script runs to completion against the package in src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "recursion_checks.py",
        "sampling_demo.py",
        "stationary_measure.py",
        "weight_polynomials.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], env=SRC_ENV, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    if demo.name == "recursion_checks.py":
        # the demo prints FAILURES for a grid point whose reports do not pass
        assert "FAILURES" not in result.stdout
