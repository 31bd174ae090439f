"""Every demo runs to completion in a fresh interpreter and prints its golden output.

The files under tests/golden/ are each demo's stdout; the demos are
deterministic, so a change that alters any of it shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "decompose_rationals.py",
    "field_tour.py",
    "frobenius_and_roots.py",
    "non_perfect_counterexample.py",
    "oracle_sweeps.py",
    "universality_verdicts.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    golden = ROOT / "tests" / "golden" / Path(demo).with_suffix(".txt")
    assert result.stdout == golden.read_text()
