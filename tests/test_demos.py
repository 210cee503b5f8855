"""The scripts in demos/ run to the end against the package.

They are the only callers of the top-level re-exports in
``bnslopes/__init__.py``; several of them assert values along the way.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["reconstruction_walkthrough", "schubert_playground", "slope_tables"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
