import csv
import io
import json
import sys
from fractions import Fraction

import pytest

from bnslopes import families
from bnslopes.cli import main
from bnslopes.tautpush import DivisorClass, castelnuovo_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSlopeCommand:
    def test_gp_pretty(self, capsys):
        code, out, _ = run(capsys, "slope", "--family", "gp", "--r", "1", "--s", "1")
        assert code == 0
        assert "17/2" in out
        assert "42/5" in out
        assert "false" in out

    def test_syzygy_genus21_csv(self, capsys):
        code, out, _ = run(
            capsys, "slope", "--family", "syzygy", "--i", "0", "--s", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["slope"] == "2459/377"
        assert row["bound"] == "72/11"
        assert row["below_bound"] == "true"
        assert row["g"] == "21"

    def test_syzygy_genus10(self, capsys):
        code, out, _ = run(
            capsys, "slope", "--family", "syzygy", "--i", "0", "--s", "1", "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["slope"] == "7"

    def test_csv_json_agree_field_for_field(self, capsys):
        args = ("slope", "--family", "gp", "--r", "1:2", "--s", "1:3")
        code, jout, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        code, cout, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        jrows = json.loads(jout)
        crows = list(csv.DictReader(io.StringIO(cout)))
        assert len(jrows) == len(crows) == 6
        for jrow, crow in zip(jrows, crows):
            assert set(jrow) == set(crow)
            for key in jrow:
                assert str(jrow[key]).lower() == crow[key]

    def test_grid_is_sorted_and_deterministic(self, capsys):
        args = ("slope", "--family", "syzygy", "--i", "0:1", "--s", "1:2", "--format", "json")
        code, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code == code2 == 0
        assert out1 == out2
        rows = json.loads(out1)
        keys = [(r["family"], r["r"], r["s"], r["extra"]) for r in rows]
        assert keys == sorted(keys)

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "slope", "--family", "gp", "--r", "1")
        assert code == 2
        assert "--s" in err

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "slope", "--family", "gp", "--r", "1", "--s", "1", "--jobs", "2")
        assert exc.value.code == 2

    def test_balance_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "slope", "--family", "hypersurface",
                           "--r", "2", "--s", "1", "--k", "2")
        assert code == 2
        assert "balance" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "slope", "--family", "gp", "--r", "1", "--s", "1",
                           "--format", "csv", "--output", str(target))
        assert code == 0
        assert out == ""
        assert "17/2" in target.read_text()

    def test_output_to_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run(capsys, "slope", "--family", "gp", "--r", "1", "--s", "1",
                             "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("bnslopes: error: ")
        assert err.count("\n") == 1
        assert "No such file or directory" in err


class TestPushCommand:
    def test_class_b_psi(self, capsys):
        code, out, _ = run(capsys, "push", "--g", "10", "--r", "4", "--d", "12",
                           "--class", "b")
        assert code == 0
        obj = json.loads(out)
        assert obj["psi"] == "-504"

    def test_genus21_normalized(self, capsys):
        code, out, _ = run(capsys, "push", "--g", "21", "--r", "6", "--d", "24",
                           "--combo", "2,-1,-8,1", "--normalize", "N")
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda"] == "2459/95"
        assert obj["delta"][0] == "-377/95"
        assert obj["psi"] == "0"

    def test_coefficients_beyond_int_str_digit_limit(self, capsys, tmp_path):
        # the smallest rho = 0 triple whose N has more than 4300 digits,
        # CPython's default cap on converting an int to or from a string
        g, r, d = 3162, 50, 3150
        N = castelnuovo_N(g, r, d)
        assert N >= 10**4300
        limit = sys.get_int_max_str_digits()
        target = tmp_path / "push.json"
        code, _, err = run(capsys, "push", "--g", str(g), "--r", str(r), "--d", str(d),
                           "--class", "b", "--output", str(target))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        lam = json.loads(target.read_text())["lambda"]
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(lam) == Fraction(6 * d * N, g - 1)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_nonzero_rho_is_usage_error(self, capsys):
        code, _, err = run(capsys, "push", "--g", "3", "--r", "1", "--d", "2",
                           "--class", "a")
        assert code == 2
        assert "rho" in err

    def test_malformed_combo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "push", "--g", "10", "--r", "4", "--d", "12", "--combo", "1,2")
        assert exc.value.code == 2

    def test_combo_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["push", "--g", "10", "--r", "4", "--d", "12", "--combo", "1/0,0,0,0"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert "q != 0" in err


class TestVerifyCommand:
    def test_castelnuovo(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "castelnuovo", "--max-g", "8")
        assert code == 0
        assert "0 failures" in out

    def test_reconstruct_single_triple(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "reconstruct",
                           "--triples", "10,4,12")
        assert code == 0

    def test_reconstruct_failure_names_coordinate(self, capsys, monkeypatch):
        closed_form = families.push

        def off_at_delta3(which, params):
            dc = closed_form(which, params)
            delta = list(dc.delta)
            delta[3] += 1
            return DivisorClass(dc.lam, dc.psi, tuple(delta))

        monkeypatch.setattr(families, "push", off_at_delta3)
        code, out, _ = run(capsys, "verify", "--suite", "reconstruct",
                           "--triples", "10,4,12")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert [line.split("(")[0] for line in failed] == ["[FAIL] reconstruct"] * 3
        assert all("first mismatch at δ3:" in line for line in failed)
        assert out.splitlines()[-1] == "7 checks, 3 failures"

    def test_schubert_oracle_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "schubert-oracle",
                           "--r-max", "2", "--d-max", "7", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        assert {tuple(sorted(r)) for r in reports} == {
            ("check", "detail", "lhs", "params", "pass", "rhs")
        }

    def test_symmetry_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "symmetry")
        assert code == 0
