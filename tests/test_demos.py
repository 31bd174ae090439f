"""Every demo runs to completion in a fresh interpreter and prints its golden output.

Every ``demos/*.py`` is collected, and tests/golden/<demo>.txt holds its
stdout; the demos are deterministic, so a change that alters any of it
shows up here, and a demo without a golden file fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    golden = ROOT / "tests" / "golden" / Path(demo).with_suffix(".txt")
    assert result.stdout == golden.read_text()
