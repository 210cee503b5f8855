import contextlib
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnslopes import cli, families, tautpush
from bnslopes.cli import main
from bnslopes.divisors import FAMILIES, Family
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    castelnuovo_N,
    per_N_numerators,
    push_b,
    push_c,
    push_combo,
    rho_zero_triples,
)


# Every grid axis of some family, in table order.
AXES = list(dict.fromkeys(axis for family in FAMILIES.values() for axis in family.axes))


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

    @pytest.mark.parametrize("fmt, per_row", [("pretty", 0), ("csv", 1), ("json", 1)])
    def test_n_is_computed_only_for_the_rows_that_print_it(self, capsys, monkeypatch, fmt, per_row):
        calls = []

        def counted(g, r, d):
            calls.append((g, r, d))
            return castelnuovo_N(g, r, d)

        monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
        code, _, _ = run(capsys, "slope", "--family", "gp", "--r", "1:3", "--s", "1:3", "--format", fmt)
        assert code == 0
        rows = [((r + 1) * (s + 1), r, r * (s + 2)) for r in range(1, 4) for s in range(1, 4)]
        assert calls == rows * per_row

    def test_gp_large_r_thin_rectangle(self, capsys):
        # g = 802 on a 401 x 2 rectangle: N is Catalan(401)
        code, out, _ = run(capsys, "slope", "--family", "gp", "--r", "400", "--s", "1",
                           "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert (row["g"], row["d"]) == ("802", "1200")
        assert row["N"] == str(math.comb(802, 401) // 402)

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "slope", "--family", "gp", "--r", "1")
        assert code == 2
        assert "--s" in err

    def test_out_of_range_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "slope", "--family", "gp", "--r", "0", "--s", "1")
        assert (code, out) == (2, "")
        assert err == "bnslopes: error: Gieseker-Petri family needs r, s >= 1; got r=0, s=1\n"

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "slope", "--family", "gp", "--r", "1", "--s", "1", "--jobs", "2")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "r, s, built",
        [("1:1000000", "1:1000000", False), ("1:1000", "1:1001", False), ("1:1000", "1:1000", True)],
    )
    def test_grid_size_cap(self, capsys, monkeypatch, r, s, built):
        # The first point built raises, so no grid here is built even
        # without the cap; 10**6 points is the largest grid allowed.
        def first_point(r, s):
            raise ParameterError("first point built")

        gp = FAMILIES["gp"]
        monkeypatch.setitem(FAMILIES, "gp", Family(gp.axes, first_point, gp.combo))
        code, out, err = run(capsys, "slope", "--family", "gp", "--r", r, "--s", s)
        assert (code, out) == (2, "")
        assert err.startswith("bnslopes: error: ")
        assert err.count("\n") == 1
        assert ("first point built" in err) is built

    @pytest.mark.parametrize("span", [":3", "1:"])
    def test_open_range_is_usage_error(self, capsys, span):
        with pytest.raises(SystemExit) as exc:
            main(["slope", "--family", "gp", "--r", span, "--s", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--r" in captured.err

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["slope", "--family", "gp", "--r", "1", "--s", "1:0"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --s: empty range '1:0'" in captured.err

    @pytest.mark.parametrize(
        "family, axes, flag",
        [
            (name, [arg for axis in family.axes for arg in (f"--{axis}", "1")], f"--{flag}")
            for name, family in FAMILIES.items()
            for flag in AXES
            if flag not in family.axes
        ],
    )
    def test_axis_the_family_does_not_take_is_usage_error(self, capsys, family, axes, flag):
        code, out, err = run(capsys, "slope", "--family", family, *axes, flag, "3")
        assert (code, out) == (2, "")
        assert err == f"bnslopes: error: {flag} is not an axis of family {family}\n"

    @pytest.mark.parametrize(
        "family, missing",
        [(name, axis) for name, family in FAMILIES.items() for axis in family.axes],
    )
    def test_axis_the_family_takes_is_required(self, capsys, family, missing):
        axes = [arg for axis in FAMILIES[family].axes if axis != missing for arg in (f"--{axis}", "1")]
        code, out, err = run(capsys, "slope", "--family", family, *axes)
        assert (code, out) == (2, "")
        assert err == f"bnslopes: error: --{missing} is required for family {family}\n"

    def test_axis_flags_are_the_union_of_family_axes(self, capsys):
        assert cli.AXES == tuple(AXES)
        args = vars(cli.build_parser().parse_args(["slope", "--family", "gp"]))
        assert set(args) - {"command", "family", "format", "output", "run"} == set(AXES)
        with pytest.raises(SystemExit):
            main(["slope", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for axis in AXES:
            takers = ", ".join(name for name, family in FAMILIES.items() if axis in family.axes)
            assert f"--{axis} {axis.upper()} {axis} value or inclusive range lo:hi; taken by {takers}" in text

    def test_two_axis_errors_report_the_first_axis_of_the_table(self, capsys):
        # --r (missing) comes before --i (not taken) in table order
        code, out, err = run(capsys, "slope", "--family", "gp", "--s", "1", "--i", "3")
        assert (code, out, err) == (2, "", "bnslopes: error: --r is required for family gp\n")

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

    def test_normalized_combo_computes_no_N(self, capsys, monkeypatch):
        calls = []

        def counted(g, r, d):
            calls.append((g, r, d))
            return castelnuovo_N(g, r, d)

        monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
        code, out, _ = run(capsys, "push", "--g", "21", "--r", "6", "--d", "24",
                           "--combo", "2,-1,-8,1", "--normalize", "N")
        assert code == 0
        assert json.loads(out)["lambda"] == "2459/95"
        assert calls == []

    def test_normalized_class(self, capsys):
        code, out, _ = run(capsys, "push", "--g", "10", "--r", "4", "--d", "12",
                           "--class", "c", "--normalize", "N")
        assert code == 0
        params = GrdParams(10, 4, 12)
        obj = json.loads(out)
        got = [Fraction(x) for x in (obj["lambda"], obj["psi"], *obj["delta"])]
        assert got == [x / params.N for x in push_c(params).coefficients()]

    def test_canonical_series_large_r(self, capsys):
        # m = g-d+r = 1, so N = 1 and normalizing changes nothing
        argv = ("push", "--g", "1000", "--r", "999", "--d", "1998", "--class", "b")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, normalized, _ = run(capsys, *argv, "--normalize", "N")
        assert code == 0
        assert out == normalized
        assert len(json.loads(out)["delta"]) == 1000

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
        obj = json.loads(target.read_text())
        dc = push_b(GrdParams(g, r, d))
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(obj["lambda"]) == Fraction(6 * d * N, g - 1) == dc.lam
            assert Fraction(obj["psi"]) == dc.psi
            assert Fraction(obj["delta"][0]) == dc.delta[0]
            assert Fraction(obj["delta"][-1]) == dc.delta[g - 1]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("normalize", [(), ("--normalize", "N")])
    def test_combo_entry_beyond_int_str_digit_limit(self, capsys, normalize):
        # one 5000-digit entry: parsed, pushed and printed exactly
        entry = "-1" + "0" * 4998 + "7/9"
        argv = ["push", "--g", "10", "--r", "4", "--d", "12", f"--combo=1/2,{entry},0,3", *normalize]
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            combo = TautCombo.of(Fraction(1, 2), Fraction(entry), 0, 3)
            params = GrdParams(10, 4, 12)
            if normalize:
                L, ints = per_N_numerators(combo, params)
                coords = [Fraction(x, L) for x in ints]
            else:
                coords = push_combo(combo, params).coefficients()
            assert out == _push_text(coords)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "push", "--g", "21", "--r", "6", "--d", "24",
                           "--combo", "2,-1,-8,1")
        assert code == 0
        obj = json.loads(out)
        coords = (obj["lambda"], obj["psi"], *obj["delta"])
        dc = push_combo(TautCombo.of(2, -1, -8, 1), GrdParams(21, 6, 24))
        assert DivisorClass.from_coefficients(map(Fraction, coords)) == dc

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "push", "--g", "6", "--r", "2", "--d", "6", "--class", "b")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"lambda", "psi", "delta"}
        assert len(obj["delta"]) == 6
        assert all(isinstance(x, str) for x in obj["delta"])

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


def _push_text(coords) -> str:
    lam, psi, *delta = map(str, coords)
    return json.dumps({"lambda": lam, "psi": psi, "delta": delta}, sort_keys=True, indent=2) + "\n"


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))
_ZERO = st.just(Fraction(0))
_COMBOS = st.one_of(
    st.tuples(*[_SMALL_RATIONALS] * 4),
    st.tuples(_ZERO, _ZERO, _ZERO, _ZERO),
    st.tuples(_ZERO, _ZERO, _ZERO, _SMALL_RATIONALS),
)


def _displayed_fold(combo, params, scale):
    """``scale`` times the per-N class of ``combo`` as Fractions, from the
    full displayed bracket generators with every delta_i evaluated, so
    the expected bytes share nothing with the second-difference tail of
    ``per_N_numerators``."""
    coords = [scale * combo.p_lam] + [Fraction(0)] * (params.g + 1)
    brackets = (tautpush._bracket_a, tautpush._bracket_b, tautpush._bracket_c)
    for p, bracket in zip((combo.p_a, combo.p_b, combo.p_c), brackets):
        if p:
            pre, ints = bracket(params)  # the prefactor as an int pair (num, den)
            weight = scale * p * Fraction(*pre)
            coords = [x + weight * y for x, y in zip(coords, ints)]
    return coords


def _push_case(triple, what, normalize):
    """The argv of one ``push`` and its expected stdout: the JSON of str()
    of each exact coordinate, taken from the displayed brackets, or None
    where the class is out of domain."""
    g, r, d = triple
    argv = ["push", "--g", str(g), "--r", str(r), "--d", str(d)]
    if isinstance(what, str):
        argv += ["--class", what]
        combo = TautCombo.of(*(int(what == x) for x in "abc"), 0)
    else:
        argv.append("--combo=" + ",".join(map(str, what)))
        combo = TautCombo.of(*what)
    if normalize:
        argv += ["--normalize", "N"]
    params = GrdParams(g, r, d)
    try:
        coords = _displayed_fold(combo, params, 1 if normalize else params.N)
    except ParameterError:
        return argv, None  # a or c at g = 2
    return argv, _push_text(coords)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(rho_zero_triples(120)),
    st.one_of(st.sampled_from("abc"), _COMBOS),
    st.booleans(),
)
def test_push_prints_str_of_exact_class(triple, what, normalize):
    """``push`` stdout is, byte for byte, the JSON of str() of each
    coordinate of the pushforward, or of its per-N class with --normalize N."""
    argv, want = _push_case(triple, what, normalize)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert (code, out.getvalue()) == ((2, "") if want is None else (0, want))


_GP_COMBO = ("-31/2", "31/2", "-30", "-30")


@pytest.mark.parametrize(
    "triple, what, normalize",
    [
        ((961, 30, 960), "a", False),
        ((961, 30, 960), "b", False),
        ((961, 30, 960), "c", False),
        ((961, 30, 960), _GP_COMBO, False),
        ((961, 30, 960), _GP_COMBO, True),
        ((1, 0, 0), (0, 0, 0, 1), False),  # delta has one entry
        ((2, 1, 2), (0, 1, 0, 0), False),
    ],
)
def test_push_prints_str_of_exact_class_at(capsys, triple, what, normalize):
    """The same bytes at the benchmark's largest genus and at the smallest."""
    argv, want = _push_case(triple, what, normalize)
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("what", ["c", _GP_COMBO])
def test_push_builds_no_fraction_per_coordinate(monkeypatch, what):
    """A push builds a few Fractions for the prefactors and weights and
    none per coordinate, so as many at g = 961 as at g = 21."""
    new = Fraction.__new__
    count = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    counts = []
    for triple in ((21, 6, 24), (961, 30, 960)):
        argv, _ = _push_case(triple, what, False)
        count = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        monkeypatch.undo()
        counts.append(count)
    assert counts[0] == counts[1] < 32, counts


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
        closed_form = families._per_N_push

        def off_at_delta3(which, params):
            L, ints = closed_form(which, params)
            ints[2 + 3] += L  # 1/N times the class, plus one at delta_3
            return L, ints

        monkeypatch.setattr(families, "_per_N_push", off_at_delta3)
        code, out, _ = run(capsys, "verify", "--suite", "reconstruct",
                           "--triples", "10,4,12")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert [line.split("(")[0] for line in failed] == ["[FAIL] reconstruct"] * 3
        assert all("first mismatch at δ3:" in line for line in failed)
        assert out.splitlines()[-1] == "7 checks, 3 failures"
        # compared per N, printed times N: the per-N offset 1 reads as N
        N = GrdParams(10, 4, 12).N
        for line, which in zip(failed, "abc"):
            x = families.reconstruct(10, 4, 12, which).delta[3]
            assert line.endswith(f"reconstructed {x}, closed form {x + N}]"), line

    def test_inconsistent_class_fails_alone(self, capsys, monkeypatch):
        # a, b and c share one elimination; a bad right-hand side for b
        # must not leak into the verdicts of a and c
        argv = ("verify", "--suite", "reconstruct", "--triples", "10,4,12")
        _, clean, _ = run(capsys, *argv)
        degree = families.pencil_degree

        def off_for_b_at_h1(params, h):
            a, b, c = degree(params, h)
            return a, b + (h == 1), c

        monkeypatch.setattr(families, "pencil_degree", off_for_b_at_h1)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        bad = "[FAIL] reconstruct(g=10,r=4,d=12,class=b): - vs -  [linear system is inconsistent]"
        changed = [(x, y) for x, y in zip(clean.splitlines(), out.splitlines()) if x != y]
        assert [y for _, y in changed] == [bad, "7 checks, 1 failures"]
        assert changed[0][0].startswith("[pass] reconstruct(g=10,r=4,d=12,class=b)")
        assert len(out.splitlines()) == len(clean.splitlines()) == 8

    def test_wrong_bridge_class_fails_its_own_class_only(self, capsys, monkeypatch):
        # the bridge classes of a, b and c are built together; a bad class
        # for c must fail c's reconstruction and bridge check and nothing else
        known = families.bridge_pushforward

        def off_for_c_at_lambda(params):
            a, b, (D, c) = known(params)
            return a, b, (D, [c[0] + D, *c[1:]])  # the per-N class of c, plus one at lambda

        monkeypatch.setattr(families, "bridge_pushforward", off_for_c_at_lambda)
        code, out, _ = run(capsys, "verify", "--suite", "reconstruct", "--triples", "10,4,12")
        assert code == 1
        failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [
            "[FAIL] reconstruct(g=10,r=4,d=12,class=c)",
            "[FAIL] bridge_quotient(g=10,r=4,d=12,class=c)",
        ]
        assert out.splitlines()[-1] == "7 checks, 2 failures"

    def test_bridge_failure_reads_not_proportional(self, capsys, monkeypatch):
        closed_form = families._per_N_push

        def off_at_lambda(which, params):
            L, ints = closed_form(which, params)
            ints[0] += L  # 1/N times the class, plus one at lambda
            return L, ints

        monkeypatch.setattr(families, "_per_N_push", off_at_lambda)
        code, out, _ = run(capsys, "verify", "--suite", "reconstruct",
                           "--triples", "10,4,12")
        assert code == 1
        bridge = [line for line in out.splitlines() if "bridge_quotient" in line]
        assert len(bridge) == 3
        assert all(line.startswith("[FAIL]") for line in bridge)
        assert all(line.endswith("  [not proportional to relation]") for line in bridge)

    def test_reconstruct_of_r_0_is_usage_error(self, capsys):
        # at r = 0 every pushforward is zero, so the checks would compare zero with zero
        code, out, err = run(capsys, "verify", "--suite", "reconstruct", "--triples", "5,0,0")
        assert (code, out, err) == (2, "", "bnslopes: error: reconstruction needs r >= 1; got r=0\n")

    @pytest.mark.parametrize(
        "triple, text",
        [("5,1,3", "rho(5,1,3) = -1 != 0"), ("4,1,3", "reconstruction needs g >= 5; got g=4")],
    )
    def test_bad_triple_stops_before_any_suite_runs(self, capsys, monkeypatch, triple, text):
        made = []
        report = families._report
        monkeypatch.setattr(families, "_report", lambda *a, **k: made.append(a) or report(*a, **k))
        code, out, err = run(capsys, "verify", "--suite", "all", "--triples", triple)
        assert (code, out, err) == (2, "", f"bnslopes: error: {text}\n")
        assert made == []

    def test_triples_are_not_checked_by_suites_that_do_not_read_them(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "castelnuovo", "--triples", "5,1,3")
        assert code == 0
        assert out.endswith(" checks, 0 failures\n")

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

    @pytest.mark.parametrize(
        "suite, flag, cap",
        [
            ("castelnuovo", "--max-g", "max_g"),
            ("schubert-oracle", "--r-max", "r_max"),
            ("schubert-oracle", "--d-max", "d_max"),
        ],
    )
    def test_negative_cap_is_usage_error(self, capsys, suite, flag, cap):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"bnslopes: error: cap {cap} must be >= 0; got -1\n"

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("--suite", "castelnuovo", "--max-g", "0"), "0 checks, 0 failures\n"),
            (("--suite", "castelnuovo", "--max-g", "0", "--format", "json"), "[]\n"),
            (("--suite", "schubert-oracle", "--r-max", "0"), "0 checks, 0 failures\n"),
        ],
    )
    def test_a_cap_that_selects_nothing_is_an_empty_pass(self, capsys, argv, out):
        # pinned as it stands, so that making it a usage error is a choice
        assert run(capsys, "verify", *argv) == (0, out, "")

    def test_caps_default_to_the_suite_defaults(self):
        args = cli.build_parser().parse_args(["verify"])
        params = inspect.signature(families.suite_reports).parameters
        for cap in ("max_g", "r_max", "d_max", "triples"):
            assert getattr(args, cap) == params[cap].default, cap
        assert args.triples == families.DEFAULT_RECONSTRUCT_TRIPLES


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["slope", "--family", "gp", "--r", "x", "--s", "1"], "--r: expected an integer or a range lo:hi; got 'x'"),
        (["slope", "--family", "gp", "--r", "1", "--s", "1:y"], "--s: expected an integer or a range lo:hi; got '1:y'"),
        (["verify", "--triples", "a,b,c"], "--triples: expected a triple of integers g,r,d; got 'a,b,c'"),
        (["verify", "--triples", "6,2,6;8,3"], "--triples: expected a triple of integers g,r,d; got '8,3'"),
    ],
)
def test_parse_error_says_what_was_expected(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    last = captured.err.splitlines()[-1]
    assert last.endswith(expected), last
    # argparse names the type function when it raises ValueError
    assert not any(word.startswith("_") for word in captured.err.split()), captured.err


def test_one_parser_serves_successive_commands(capsys):
    # main keeps one parser for the process; each call still prints what
    # a fresh process prints for the same argv
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    calls = [
        ["push", "--g", "10", "--r", "4", "--d", "12", "--class", "b"],
        ["slope", "--family", "gp", "--r", "1:2", "--s", "1"],
        ["push", "--g", "21", "--r", "6", "--d", "24", "--combo", "2,-1,-8,1", "--normalize", "N"],
    ]
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "bnslopes.cli", *argv], env=env, capture_output=True, check=False
        )
        assert (code, out.encode("utf-8")) == (fresh.returncode, fresh.stdout), argv
    assert cli.build_parser() is cli.build_parser()
