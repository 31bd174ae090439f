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

Two more tests run a few commands with stdout, or stderr, on a pipe
whose read end is already closed, buffered and unbuffered: each must
keep its exit code and print nothing on the other stream.
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


CLOSED_STDOUT = [
    ("universal-z --coeffs 1,1,1", 0),
    ("universal-z --coeffs 1,1", 2),
    ("oracle --field 'GF(5)' --coeffs 2,3 --json", 0),
    ("--help", 0),
]


CLOSED_STDERR = [
    ("universal-z --coeffs 1,x", 3),
    ("decompose --field Q", 3),  # an argparse usage error
    ("decompose --field 'GF(6)' --coeffs 1,1 --target '[[1,0],[0,1]]'", 3),
    ("oracle --field 'GF(7)' --coeffs 1,1", 4),
]


def run_closed(args, closed, unbuffered):
    """Run ``m2forms args`` with the ``closed`` stream on a pipe nobody reads."""
    env = dict(os.environ, COLUMNS="120")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "m2forms", *shlex.split(args)],
            env=env, text=True, timeout=10, **streams,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code", CLOSED_STDOUT, ids=[args for args, _ in CLOSED_STDOUT])
def test_closed_stdout_keeps_the_exit_code(args, code, unbuffered):
    result = run_closed(args, "stdout", unbuffered)
    assert (result.returncode, result.stderr) == (code, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code", CLOSED_STDERR, ids=[args for args, _ in CLOSED_STDERR])
def test_closed_stderr_keeps_the_exit_code(args, code, unbuffered):
    result = run_closed(args, "stderr", unbuffered)
    assert (result.returncode, result.stdout) == (code, "")
