"""The CLI transcript: each case of tests/golden/cli.txt replayed in a fresh interpreter.

A case is an argv line ``$ m2forms ...`` in shell quoting, the expected
stdout, and ``[exit N]``.  Blank lines separate cases, and ``#`` lines
between cases are comments.  Each case runs ``python -W error -m
m2forms`` in this process's environment and current directory, with
``COLUMNS=120`` added so that help text wraps the same on every
supported Python, and must print nothing to stderr; a warning the
package raises fails the case.  Under ``PYTHONPATH=src`` this checks the
source tree; run from outside the checkout with no ``PYTHONPATH``, it
checks the installed package.  The timeout bounds the GF(16) queries.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli.txt"
PROMPT = "$ m2forms "
EXIT = re.compile(r"\[exit (\d+)\]")


def load_cases(text):
    """(argv line, stdout, exit code) of each case in a transcript."""
    cases, lines = [], iter(text.splitlines())
    for line in lines:
        if not line or line.startswith("#"):
            continue
        assert line.startswith(PROMPT), line
        stdout = []
        for body in lines:
            if end := EXIT.fullmatch(body):
                break
            stdout.append(body + "\n")
        else:
            raise AssertionError(f"no [exit N] line after {line!r}")
        cases.append((line[len(PROMPT):], "".join(stdout), int(end[1])))
    return cases


CASES = load_cases(TRANSCRIPT.read_text())


@pytest.mark.parametrize("args, stdout, code", CASES, ids=[args for args, _, _ in CASES])
def test_cli_transcript(args, stdout, code):
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "m2forms", *shlex.split(args)],
        env=dict(os.environ, COLUMNS="120"), capture_output=True, text=True, timeout=10,
    )
    assert (result.stdout, result.stderr, result.returncode) == (stdout, "", code)
