from fractions import Fraction
from itertools import islice

import pytest

from bnslopes import divisors, tautpush
from bnslopes.cli import main
from bnslopes.divisors import (
    FamilyParams,
    SlopeUndefinedError,
    family_combo,
    gp_combo,
    gp_slope_closed,
    hypersurface_combo,
    slope,
    slope_bound,
    slope_report,
    syzygy_combo,
    syzygy_slope_closed,
)
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    castelnuovo_N,
    per_N_numerators,
    push_combo,
)


class TestCombos:
    def test_gp_examples(self):
        assert gp_combo(1, 1) == TautCombo.of(-1, 1, 0, -1)
        assert gp_combo(4, 1) == TautCombo.of(Fraction(-5, 2), Fraction(5, 2), 3, -4)

    def test_gp_r1_c_coefficient(self):
        for s in range(1, 7):
            assert gp_combo(1, s).p_c == 1 - s

    def test_hypersurface_examples(self):
        assert hypersurface_combo(4, 1, 2) == TautCombo.of(2, -1, -6, 1)
        assert hypersurface_combo(6, 2, 2) == TautCombo.of(2, -1, -8, 1)
        assert hypersurface_combo(1, 1, 2) == TautCombo.of(2, -1, -3, 1)

    def test_hypersurface_balance_error_reports_both_sides(self):
        # (r,s,k) = (2,1,2): C(4,2) = 6 while kd - g + 1 = 12 - 6 + 1 = 7
        with pytest.raises(ParameterError) as err:
            hypersurface_combo(2, 1, 2)
        assert "= 6" in str(err.value) and "= 7" in str(err.value)

    def test_syzygy_examples(self):
        assert syzygy_combo(0, 1) == TautCombo.of(2, -1, -6, 1)
        assert syzygy_combo(0, 2) == TautCombo.of(2, -1, -8, 1)

    def test_syzygy_i0_general(self):
        for s in range(0, 6):
            r = 2 * s + 2
            assert syzygy_combo(0, s) == TautCombo.of(2, -1, -(r + 2), 1)

    def test_hypersurface_k2_equals_syzygy_i0(self):
        for s in range(1, 5):
            assert hypersurface_combo(2 * s + 2, s, 2) == syzygy_combo(0, s)


class TestSlope:
    def test_genus10_value(self):
        """The K_10 divisor has slope 7 (Farkas-Popa, J. Algebraic Geom. 14
        (2005)), below 6 + 12/(g+1) at g = 10."""
        dc = push_combo(TautCombo.of(2, -1, -6, 1), GrdParams(10, 4, 12))
        assert slope(dc) == 7

    def test_genus21_value(self):
        """The g^6_24 divisor on M_21 has slope 2459/377 (Farkas, Duke
        Math. J. 135 (2006))."""
        dc = push_combo(TautCombo.of(2, -1, -8, 1), GrdParams(21, 6, 24))
        assert slope(dc) == Fraction(2459, 377)

    def test_undefined_zero_delta0(self):
        dc = DivisorClass(Fraction(3), Fraction(0), (Fraction(0),) * 4)
        with pytest.raises(SlopeUndefinedError) as err:
            slope(dc)
        assert err.value.lam == 3
        assert err.value.delta0 == 0

    def test_undefined_same_sign(self):
        dc = DivisorClass(Fraction(3), Fraction(0), (Fraction(1),) + (Fraction(0),) * 3)
        with pytest.raises(SlopeUndefinedError):
            slope(dc)

    def test_bound(self):
        assert slope_bound(4) == Fraction(42, 5)
        assert slope_bound(21) == Fraction(72, 11)


class TestClosedForms:
    def test_gp_values(self):
        assert gp_slope_closed(1, 1) == Fraction(17, 2)
        assert gp_slope_closed(1, 2) == Fraction(5640, 720) == Fraction(47, 6)

    def test_gp_symmetric(self):
        for r in range(1, 5):
            for s in range(1, 5):
                assert gp_slope_closed(r, s) == gp_slope_closed(s, r)

    def test_syzygy_values(self):
        assert syzygy_slope_closed(0, 1) == -7
        assert abs(syzygy_slope_closed(0, 2)) == Fraction(2459, 377)
        # negative below the i = 2 pole, positive above
        assert syzygy_slope_closed(1, 1) < 0
        assert syzygy_slope_closed(3, 1) > 0

    def test_syzygy_pole(self):
        with pytest.raises(ParameterError):
            syzygy_slope_closed(2, 1)


class TestPipelineAgainstClosedForms:
    def test_gp_grid(self):
        for r in range(1, 5):
            for s in range(1, 5):
                rep = slope_report(FamilyParams.gp(r, s))
                assert rep.slope == gp_slope_closed(r, s), (r, s)
                # slope symmetric under swapping the two parameters
                assert rep.slope == slope_report(FamilyParams.gp(s, r)).slope

    def test_syzygy_grid(self):
        for i in (0, 1, 3):
            for s in (1, 2, 3):
                rep = slope_report(FamilyParams.syzygy(i, s))
                assert abs(rep.slope) == abs(syzygy_slope_closed(i, s)), (i, s)

    def test_syzygy_sign(self):
        # the pipeline slope is |closed|: the closed form carries a minus
        # sign below i = 2 and none above it
        for i, sign in ((0, -1), (1, -1), (3, 1)):
            for s in range(60):
                fp = FamilyParams.syzygy(i, s)
                grd = GrdParams(fp.g, fp.r, fp.d)
                _, ints = per_N_numerators(family_combo(fp), grd)
                lam, _, delta0 = islice(ints, 3)
                assert Fraction(-lam, delta0) == sign * syzygy_slope_closed(i, s), (i, s)

    def test_syzygy_i1_anchor(self):
        # no external anchor for i >= 1: freeze the pipeline value, and the
        # closed form must be consistent with it
        rep = slope_report(FamilyParams.syzygy(1, 1))
        assert rep.slope == Fraction(407, 61)
        assert syzygy_slope_closed(1, 1) == Fraction(-407, 61)


class TestStructuralInvariants:
    def test_psi_vanishes_everywhere(self):
        instances = [FamilyParams.gp(r, s) for r in range(1, 5) for s in range(1, 5)]
        instances += [FamilyParams.syzygy(i, s) for i in (0, 1, 3) for s in (1, 2, 3)]
        instances += [FamilyParams.hypersurface(2 * s + 2, s, 2) for s in range(1, 5)]
        instances += [FamilyParams.hypersurface(1, s, 2) for s in range(1, 5)]
        for fp in instances:
            assert slope_report(fp).pushforward.psi == 0, fp

    def test_quadric_instances_delta_symmetric(self):
        for s in (1, 2, 3):
            pf = slope_report(FamilyParams.syzygy(0, s)).pushforward
            assert pf.is_delta_symmetric(), s

    def test_non_quadric_asymmetry_is_real(self):
        # observed behavior, recorded rather than asserted away: outside
        # the quadric-type instances the pushforward need not be a
        # pullback from the unpointed space, and its higher boundary
        # coefficients are genuinely asymmetric
        gp = slope_report(FamilyParams.gp(1, 1)).pushforward
        assert gp.delta[1] == 0 and gp.delta[3] == -12
        assert not gp.is_delta_symmetric()
        assert not slope_report(FamilyParams.syzygy(1, 1)).pushforward.is_delta_symmetric()


class TestTwoCoordinateSlope:
    def test_matches_full_pushforward(self):
        instances = [FamilyParams.gp(r, s) for r in range(1, 7) for s in range(1, 7)]
        instances += [FamilyParams.syzygy(i, s) for i in range(0, 5) for s in range(0, 5)]
        instances += [FamilyParams.hypersurface(*rsk) for rsk in ((3, 1, 3), (4, 1, 2), (6, 2, 2))]
        for fp in instances:
            full = slope(push_combo(family_combo(fp), GrdParams(fp.g, fp.r, fp.d)))
            assert slope_report(fp).slope == full, fp

    def test_pushforward_on_demand(self, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("push_a", "push_b", "push_c", "push_combo"):
            counted(tautpush, name)
        counted(divisors, "push_combo")
        rep = slope_report(FamilyParams.syzygy(0, 2))
        assert rep.slope == Fraction(2459, 377)
        assert calls == []
        assert rep.pushforward.lam == Fraction(2459, 95) * rep.N
        assert rep.pushforward is rep.pushforward
        assert calls == ["push_combo"]

    def test_undefined_slope_reports_scaled_coefficients(self, monkeypatch):
        # with p_lam = 1/3 the numerators are over L = 3, which the
        # reported coefficients must divide out
        N = castelnuovo_N(9, 2, 8)
        for p_lam, lam in ((1, N), (Fraction(1, 3), Fraction(N, 3))):
            monkeypatch.setattr(divisors, "family_combo", lambda fp, p=p_lam: TautCombo.of(0, 0, 0, p))
            with pytest.raises(SlopeUndefinedError) as err:
                slope_report(FamilyParams.gp(2, 2))
            assert err.value.lam == lam and err.value.delta0 == 0
            assert f"got lambda = {lam}, delta_0 = 0" in str(err.value)


class TestSlopeReport:
    def test_genus21_report(self):
        rep = slope_report(FamilyParams.syzygy(0, 2))
        assert rep.g == 21 and rep.d == 24
        assert rep.slope == Fraction(2459, 377)
        assert rep.bound == Fraction(72, 11)
        assert rep.below_bound is True

    def test_gp11_not_below_bound(self):
        rep = slope_report(FamilyParams.gp(1, 1))
        assert rep.slope == Fraction(17, 2)
        assert rep.below_bound is False

    def test_row_schema(self):
        row = slope_report(FamilyParams.gp(1, 1)).row()
        assert list(row) == [
            "family", "r", "s", "extra", "g", "d", "N", "slope", "bound", "below_bound",
        ]
        assert row["slope"] == "17/2"


@pytest.mark.parametrize(
    "make, combo, args, message",
    [
        (FamilyParams.gp, gp_combo, (0, 1), "Gieseker-Petri family needs r, s >= 1; got r=0, s=1"),
        (FamilyParams.hypersurface, hypersurface_combo, (0, 1, 2), "hypersurface family needs r, s, k >= 1; got r=0, s=1, k=2"),
        (
            FamilyParams.hypersurface,
            hypersurface_combo,
            (2, 1, 2),
            "hypersurface rank balance fails at (r=2, s=1, k=2): C(r+k,k) = 6 but kd - g + 1 = 7",
        ),
        (FamilyParams.syzygy, syzygy_combo, (-1, 0), "syzygy family needs i, s >= 0; got i=-1, s=0"),
    ],
)
def test_constructor_and_combo_raise_one_text(make, combo, args, message):
    for call in (make, combo):
        with pytest.raises(ParameterError) as err:
            call(*args)
        assert str(err.value) == message


def test_each_slope_row_builds_its_combo_once(monkeypatch, capsys):
    calls = []
    original = divisors.gp_combo

    def counted(r, s):
        calls.append((r, s))
        return original(r, s)

    monkeypatch.setattr(divisors, "gp_combo", counted)
    assert main(["slope", "--family", "gp", "--r", "1:3", "--s", "1:3"]) == 0
    assert capsys.readouterr().out.count("\ngp ") == 9
    assert sorted(calls) == [(r, s) for r in range(1, 4) for s in range(1, 4)]


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: hypersurface_combo(0, 1, 2), "needs r, s, k >= 1"),
        (lambda: syzygy_combo(-1, 0), "needs i, s >= 0"),
        (lambda: gp_slope_closed(0, 1), "need r, s >= 1"),
        (lambda: syzygy_slope_closed(-1, 0), "need i, s >= 0"),
        (lambda: family_combo(FamilyParams("x", 1, 1)), "unknown family 'x'"),
    ],
)
def test_named_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()
