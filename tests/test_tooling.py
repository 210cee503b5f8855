"""The test configuration itself: with ``filterwarnings = ["error"]`` a
warning raised while pytest reports a failure aborts the whole run with
INTERNALERROR, so no later test runs.  Hypothesis' failure report
imports ``libcst``, which warns about a deprecated ``mypy_extensions``
name; ``pyproject.toml`` ignores that one warning from that one module,
and every other warning still fails its test."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=5))
def test_fails_at_two(x):
    assert x != 2


def test_same_warning_from_a_test_still_fails():
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)


def test_runs_after_the_failures():
    pass
'''


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_throwaway.py").write_text(FAILING)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTEST_ADDOPTS", None)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "2 failed, 1 passed" in out, out
