"""The scripts in demos/ run to the end against the package.

They import each name from the module that defines it, as every other
caller does; several of them assert values along the way.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["reconstruction_walkthrough", "schubert_playground", "slope_tables"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
