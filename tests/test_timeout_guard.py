"""The per-test alarm of ``tests/conftest.py`` fails a hung test by name."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py")

# the guard's hook with a 0.5 s limit, in a pytest run of its own
SHORT_GUARD = f"""
import importlib.util

spec = importlib.util.spec_from_file_location("guard", {str(CONFTEST)!r})
guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(guard)
guard.TEST_TIMEOUT_S = 0.5
pytest_runtest_call = guard.pytest_runtest_call
"""

TESTS = """
import time


def test_hangs():
    while True:
        time.sleep(0.05)


def test_quick():
    time.sleep(0.01)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_hung_test_fails_by_name(tmp_path):
    (tmp_path / "conftest.py").write_text(SHORT_GUARD)
    (tmp_path / "test_hang.py").write_text(TESTS)
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 1, res.stdout
    assert "test_hang.py::test_hangs ran past the 0.5 s limit" in res.stdout
    assert "1 failed, 1 passed" in res.stdout
