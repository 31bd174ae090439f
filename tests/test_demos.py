"""Every demo runs to completion in a fresh interpreter and prints its golden output.

Every ``demos/*.py`` is collected and run under each interpreter of
the ``pythons`` fixture (tests/conftest.py), and tests/golden/<demo>.txt
holds its stdout; the demos are deterministic, so a change that alters
any of it shows up here, and a demo without a golden file fails.
"""

import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, pythons):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden = ROOT / "tests" / "golden" / Path(demo).with_suffix(".txt")
    for python in pythons:
        result = subprocess.run(
            [python, "-W", "error", str(ROOT / "demos" / demo)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (python, result.stderr)
        assert "Traceback" not in result.stdout + result.stderr, python
        assert result.stdout == golden.read_text(), python
