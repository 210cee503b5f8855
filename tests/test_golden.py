"""Byte-for-byte CLI output against the files recorded in tests/golden/.

Each file holds the stdout of one invocation.  A change that alters any
of them changes what users see, so it has to be deliberate: rerun the
invocation and commit the new file together with the reason.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bnslopes.cli import main
from bnslopes.divisors import FAMILIES
from bnslopes.tautpush import rho_zero_triples

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


def test_every_family_has_a_slope_golden():
    slope = [argv for argv in CASES.values() if argv[0] == "slope"]
    assert {argv[argv.index("--family") + 1] for argv in slope} == set(FAMILIES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


# Runs the module entry point once per case, in one process, and prints
# {name: [exit code, stdout]} as JSON.
_RUN_CASES = """
import contextlib, io, json, runpy, sys
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    sys.argv[1:] = argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("bnslopes.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            results[name] = [exc.code, out.getvalue()]
print(json.dumps({"optimize": sys.flags.optimize, "results": results}))
"""


def test_module_entry_point_optimized():
    # `python -O` strips assert statements; the checks must not rely on them.
    # Every golden is byte-identical under two hash seeds, so no output
    # depends on the iteration order of a set or of a dict of str keys.
    src = Path(__file__).resolve().parent.parent / "src"
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8", PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _RUN_CASES, json.dumps(CASES)],
            env=env,
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["optimize"] == 1
        assert sorted(got["results"]) == sorted(CASES)
        for name, (code, out) in got["results"].items():
            assert code == 0, name
            assert out.encode("utf-8") == (GOLDEN / name).read_bytes(), (hash_seed, name)


# SHA-256 of the stdout of `verify --suite reconstruct` over every rho = 0
# triple with 5 <= g <= 60, too long to keep as a file.
_SWEEP_SHA256 = {
    "pretty": "8469c13af1a07dfe9738aabdcca74ec88cfaea0391cb40dadb97cb133fa4604c",
    "json": "1fd78bf83690d929edece20823594f7727e939710a9d96baa6f1ba60fc73cb9a",
}

# SHA-256 of the stdout of `verify --suite <suite> <caps>`, at caps beyond
# those of verify_all.txt (r <= 5, d <= 18, max-g 12 by default).
_BEYOND_CAPS_SHA256 = {
    ("schubert-oracle", "--r-max", "6", "--d-max", "16"): {
        "pretty": "6bf36cdde8c55a2893ae30a7b03d6f358e3d108dc200e1e6043958ae46a68660",
        "json": "7f6f97c0d58376231efa403bde75ddfae0a412ebeedab64f509efab53771ae8c",
    },
    ("weierstrass", "--max-g", "16"): {
        "pretty": "abb9dabcdfc3c54c247ca1be16348b0387d62bb4c53c383162c9405250a47f51",
        "json": "7199ff2c04b162f0d2f6efa45c7fc5e52a96f5486e26a6de3032b6c0fab256c5",
    },
    ("castelnuovo", "--max-g", "18"): {
        "pretty": "664675c8b56c42d0b6adeb0c54fa040fab4828381fdafe43ce63cf15d570c8d9",
        "json": "d813c9782282768459fbdf7e837d21e278a51222abc60e63c990a0bbfed10d7b",
    },
}


@pytest.mark.parametrize("fmt", sorted(_SWEEP_SHA256))
def test_reconstruct_sweep_bytes(fmt, capsys):
    triples = [t for t in rho_zero_triples(60) if t[0] >= 5]
    assert len(triples) == 197
    spec = ";".join(f"{g},{r},{d}" for g, r, d in triples)
    code = main(["verify", "--suite", "reconstruct", "--triples", spec, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _SWEEP_SHA256[fmt]


# SHA-256 of the stdout of `verify --suite reconstruct` at four triples
# with 240 <= g <= 961, where N has hundreds of digits.
_LARGE_G_TRIPLES = "240,15,240;400,199,597;480,23,483;961,30,960"
_LARGE_G_SHA256 = {
    "pretty": "f0bef1bd141fa81b929e1abc7c775828efeb018d35fcabaa42735db4d2d2268f",
    "json": "63ddb37e690f9aa6def429a24d628916cd9e8b6d846edccf801b1a72618c67ea",
}


@pytest.mark.parametrize("fmt", sorted(_LARGE_G_SHA256))
def test_reconstruct_large_g_bytes(fmt, capsys):
    code = main(["verify", "--suite", "reconstruct", "--triples", _LARGE_G_TRIPLES, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _LARGE_G_SHA256[fmt]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("args", sorted(_BEYOND_CAPS_SHA256), ids=lambda args: args[0])
def test_verify_bytes_beyond_default_caps(args, fmt, capsys):
    code = main(["verify", "--suite", *args, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _BEYOND_CAPS_SHA256[args][fmt]
