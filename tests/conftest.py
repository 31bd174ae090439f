"""The interpreters that the child-process tests run ``m2forms`` under.

``M2FORMS_TEST_PYTHONS`` lists them, separated by ``os.pathsep``; unset
or empty, it is the interpreter running pytest alone.  So pytest is
needed in one interpreter only, and every listed one runs the CLI
transcript, the closed-pipe and full-disk cases, the demos and the
module-set checks.
"""

import os
import sys

import pytest


@pytest.fixture(scope="session")
def pythons():
    listed = os.environ.get("M2FORMS_TEST_PYTHONS", "").split(os.pathsep)
    return [python for python in listed if python] or [sys.executable]
