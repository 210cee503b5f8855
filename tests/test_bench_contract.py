"""The benchmark's tracer names package functions by string, so a rename
or a cut that leaves one of them dangling would only show up when
``bench/run.py --trace 1`` runs.  These tests read the tracer's table
without changing anything under ``bench/``."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import bnslopes

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(bnslopes.__path__))


def test_traced_functions_resolve():
    # run_path compiles the source itself, so no bytecode lands in bench/.
    tracer = runpy.run_path(str(LAYERTRACE))
    assert set(tracer["LAYERS"]) <= set(MODULES)
    for layer, fname, _ in tracer["TRACED"]:
        module = importlib.import_module(f"bnslopes.{layer}")
        assert callable(getattr(module, fname, None)), f"{layer}.{fname}"


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist(name):
    module = importlib.import_module(f"bnslopes.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing
