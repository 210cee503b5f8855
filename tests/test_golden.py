"""Byte-for-byte CLI output against the files recorded in tests/golden/.

Each file holds the stdout of one invocation.  A change that alters any
of them changes what users see, so it has to be deliberate: rerun the
invocation and commit the new file together with the reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bnslopes.cli import main

GOLDEN = Path(__file__).parent / "golden"

_VERIFY = ["verify", "--suite", "all", "--max-g", "8", "--r-max", "2", "--d-max", "8"]

CASES = {
    "slope_gp.txt": ["slope", "--family", "gp", "--r", "1:3", "--s", "1:3"],
    "slope_gp.json": ["slope", "--family", "gp", "--r", "1:3", "--s", "1:3", "--format", "json"],
    "slope_gp.csv": ["slope", "--family", "gp", "--r", "1:3", "--s", "1:3", "--format", "csv"],
    "slope_syzygy.csv": ["slope", "--family", "syzygy", "--i", "0:3", "--s", "0:2", "--format", "csv"],
    "slope_hypersurface_k3.json": [
        "slope", "--family", "hypersurface", "--r", "3", "--s", "1", "--k", "3", "--format", "json",
    ],
    "slope_hypersurface_k2.txt": ["slope", "--family", "hypersurface", "--r", "4", "--s", "1", "--k", "2"],
    "push_a.json": ["push", "--g", "10", "--r", "4", "--d", "12", "--class", "a"],
    "push_b.json": ["push", "--g", "10", "--r", "4", "--d", "12", "--class", "b"],
    "push_c.json": ["push", "--g", "10", "--r", "4", "--d", "12", "--class", "c"],
    "push_combo_normalized.json": [
        "push", "--g", "21", "--r", "6", "--d", "24", "--combo", "2,-1,-8,1", "--normalize", "N",
    ],
    "verify_all.txt": _VERIFY,
    "verify_all.json": _VERIFY + ["--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_module_entry_point_optimized():
    # `python -O` strips assert statements; the checks must not rely on them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bnslopes.cli", *_VERIFY],
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "verify_all.txt").read_bytes()
