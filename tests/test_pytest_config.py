"""The repository's pytest configuration keeps a session running past a
failing property test."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # Every warning is an error, and hypothesis's report of a failing example
    # emits a DeprecationWarning inside a pytest hook, where an error is an
    # INTERNALERROR that stops the session before the remaining tests run.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
