"""The suite's pytest configuration reports every test after a failing Hypothesis example."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_does_not_abort_the_session(tmp_path):
    # Hypothesis builds a patch for the failing example through libcst, whose
    # import warns; under filterwarnings = ["error"] alone that is an
    # INTERNALERROR, and every later test goes unreported
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    out = proc.stdout.decode() + proc.stderr.decode()
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
