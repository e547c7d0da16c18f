"""The suite's pytest options report a failing test as a failure of that test.

The options turn warnings into errors, so a numpy RuntimeWarning fails the
test that raises it; a warning raised while hypothesis writes its failure
report must not turn the whole run into an internal error instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXAMPLE = """
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_warns():
    np.log(np.zeros(1))


def test_passes():
    pass
"""


def test_failing_tests_fail_the_run_and_the_rest_are_reported(tmp_path):
    (tmp_path / "test_example.py").write_text(EXAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout, run.stdout
