"""The benchmark's tracer names package functions by string, so a rename
or a cut that leaves one of them dangling would only show up when
``bench/run.py --trace 1`` runs.  These tests read the tracer's table
without changing anything under ``bench/``.  The benchmark also times a
fresh import of the package as each workload's set-up, so that import
must not pull in ``dataclasses`` or the ``inspect`` module it needs."""

import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bnslopes

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "bench" / "layertrace.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(bnslopes.__path__))


def test_traced_functions_resolve():
    # run_path compiles the source itself, so no bytecode lands in bench/.
    tracer = runpy.run_path(str(LAYERTRACE))
    assert set(tracer["LAYERS"]) <= set(MODULES)
    for layer, fname, _ in tracer["TRACED"]:
        module = importlib.import_module(f"bnslopes.{layer}")
        assert callable(getattr(module, fname, None)), f"{layer}.{fname}"


def test_layers_are_package_attributes_after_cli_import():
    # the benchmark imports bnslopes and then bnslopes.cli, and its tracer
    # reads each layer as an attribute of the package; the package's
    # __init__ imports nothing, so the cli's own imports must reach them
    layers = runpy.run_path(str(LAYERTRACE))["LAYERS"]
    code = "import sys, bnslopes, bnslopes.cli; print(*(n for n in sys.argv[1:] if not hasattr(bnslopes, n)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run([sys.executable, "-c", code, *layers], env=env, capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout.strip()) == (0, ""), fresh.stderr


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = "import sys, bnslopes.cli; print(*(n for n in ('dataclasses', 'inspect') if n in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout.strip()) == (0, ""), fresh.stderr


@pytest.mark.parametrize("name", MODULES)
def test_exports_exist(name):
    module = importlib.import_module(f"bnslopes.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing
