"""The CLI transcript: each case of tests/golden/cli.txt replayed in a fresh interpreter.

A case is an argv line ``$ m2forms ...`` in shell quoting, the expected
stdout, and ``[exit N]``.  Blank lines separate cases, and ``#`` lines
between cases are comments.  Each case runs ``python -W error -m
m2forms`` in this process's environment and current directory, with
``COLUMNS=120`` added so that help text wraps the same on every
supported Python, and must print nothing to stderr; a warning the
package raises fails the case.  Every test here runs each case under
each interpreter of the ``pythons`` fixture (tests/conftest.py).  Under
``PYTHONPATH=src`` this checks the source tree; run from outside the
checkout with no ``PYTHONPATH``, it checks the installed package.  The
timeout bounds the GF(16) queries.

Two more tests run a few commands with stdout, or stderr, on a pipe
whose read end is already closed, buffered and unbuffered: each must
keep its exit code and print nothing on the other stream.  Two last
tests put stdout, or stderr, on ``/dev/full``: a command whose answer
or error cannot be written exits 1, one that writes nothing there keeps
its own code, and neither prints a traceback.
"""

import os
import re
import shlex
import subprocess
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
def test_cli_transcript(args, stdout, code, pythons):
    for python in pythons:
        result = subprocess.run(
            [python, "-W", "error", "-m", "m2forms", *shlex.split(args)],
            env=dict(os.environ, COLUMNS="120"), capture_output=True, text=True, timeout=10,
        )
        assert (result.stdout, result.stderr, result.returncode) == (stdout, "", code), python


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
    ("oracle --field 'GF(17)' --coeffs 1,1", 4),
]


def run_with(python, args, stream, fd, unbuffered):
    """Run ``m2forms args`` under ``python`` with ``stream`` ("stdout" or
    "stderr") on ``fd``."""
    env = dict(os.environ, COLUMNS="120")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: fd}
    return subprocess.run(
        [python, "-W", "error", "-m", "m2forms", *shlex.split(args)],
        env=env, text=True, timeout=10, **streams,
    )


def run_closed(python, args, closed, unbuffered):
    """Run ``m2forms args`` with the ``closed`` stream on a pipe nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_with(python, args, closed, write_end, unbuffered)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code", CLOSED_STDOUT, ids=[args for args, _ in CLOSED_STDOUT])
def test_closed_stdout_keeps_the_exit_code(args, code, unbuffered, pythons):
    for python in pythons:
        result = run_closed(python, args, "stdout", unbuffered)
        assert (result.returncode, result.stderr) == (code, ""), python


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code", CLOSED_STDERR, ids=[args for args, _ in CLOSED_STDERR])
def test_closed_stderr_keeps_the_exit_code(args, code, unbuffered, pythons):
    for python in pythons:
        result = run_closed(python, args, "stderr", unbuffered)
        assert (result.returncode, result.stdout) == (code, ""), python


# (args, exit code, what the other stream prints)
FULL_STDOUT = [
    ("universal-z --coeffs 1,1,1", 1, ""),
    ("universal-z --coeffs 1,1,1 --json", 1, ""),
    ("universal-z --coeffs 1,x", 3, "error: expected an integer coefficient (at position 2 in '1,x')\n"),
    ("universal-z --coeffs 1,x --json", 1, ""),
    ("--help", 1, ""),
]


FULL_STDERR = [
    ("universal-z --coeffs 1,1,1", 0, "Universal\n"),
    ("universal-z --coeffs 1,1,1 --json", 0, '{"coeffs": [1, 1, 1], "universal": true}\n'),
    ("universal-z --coeffs 1,x", 1, ""),
    ("universal-z --coeffs 1,x --json", 3,
     '{"error": "ParseError", "message": "expected an integer coefficient (at position 2 in \'1,x\')"}\n'),
    ("decompose --field Q", 1, ""),  # an argparse usage error
]


def run_full(python, args, stream, unbuffered):
    """Run ``m2forms args`` with ``stream`` on /dev/full, where every write fails."""
    with open("/dev/full", "w") as full:
        return run_with(python, args, stream, full.fileno(), unbuffered)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code, stderr", FULL_STDOUT, ids=[args for args, _, _ in FULL_STDOUT])
def test_full_stdout_exits_1_without_a_traceback(args, code, stderr, unbuffered, pythons):
    for python in pythons:
        result = run_full(python, args, "stdout", unbuffered)
        assert (result.returncode, result.stderr) == (code, stderr), python


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, code, stdout", FULL_STDERR, ids=[args for args, _, _ in FULL_STDERR])
def test_full_stderr_exits_1_without_a_traceback(args, code, stdout, unbuffered, pythons):
    for python in pythons:
        result = run_full(python, args, "stderr", unbuffered)
        assert (result.returncode, result.stdout) == (code, stdout), python
