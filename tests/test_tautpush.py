import copy
import itertools
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnslopes import families, tautpush
from bnslopes.families import identity_castelnuovo, identity_weierstrass_a
from bnslopes.schubert import GrassmannianSpec, brute_zeta_integral, make_index
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    castelnuovo_N,
    per_N_numerators,
    push,
    push_a,
    push_b,
    push_c,
    push_combo,
    rho,
    rho_zero_triples,
)


_TRIPLES_3_60 = [t for t in rho_zero_triples(60) if t[0] >= 3]


def _displayed_N(g, r, d):
    """1! 2! ... r! g! / ((g-d+r)! ... (g-d+2r)!), both sides in full."""
    num = math.factorial(g)
    den = 1
    for j in range(r + 1):
        num *= math.factorial(j)
        den *= math.factorial(g - d + r + j)
    n, rem = divmod(num, den)
    assert rem == 0
    return n


class TestRho:
    def test_values(self):
        assert rho(4, 1, 3) == 0
        assert rho(10, 4, 12) == 0
        assert rho(2, 1, 2) == 0
        assert rho(3, 1, 2) == -1

    def test_params_reject_nonzero_rho(self):
        with pytest.raises(ParameterError, match=r"rho\(3,1,2\) = -1 != 0"):
            GrdParams(3, 1, 2)


class TestCastelnuovo:
    def test_values(self):
        assert castelnuovo_N(4, 1, 3) == 2
        assert castelnuovo_N(6, 2, 6) == 5
        assert castelnuovo_N(10, 4, 12) == 42

    def test_rejects_nonzero_rho(self):
        with pytest.raises(ParameterError):
            castelnuovo_N(3, 1, 2)

    def test_rejects_negative_r(self):
        # rho and g-d+r both vanish here; an empty product must not pass for N
        with pytest.raises(ParameterError, match=r"r >= 1; got \(g,r,d\)=\(0,-1,-1\)"):
            castelnuovo_N(0, -1, -1)

    def test_non_integral_count_is_named_error(self, monkeypatch):
        # the 2 x 5 rectangle takes one step, (252+1) / (6+1), which leaves a remainder
        monkeypatch.setattr(tautpush, "comb", lambda n, k: math.comb(n, k) + 1)
        with pytest.raises(ArithmeticError, match=r"\(10,4,12\)"):
            castelnuovo_N(10, 4, 12)

    def test_empty_and_one_row_rectangles_are_refused(self):
        # m = 0 is the empty rectangle (g = 0); r = 0 (so d = 0) is a single
        # row of g boxes: neither is a triple, though rho vanishes on both
        for r in range(6):
            with pytest.raises(ParameterError, match="need g >= 1 and r >= 1"):
                castelnuovo_N(0, r, r)
        for g in range(6):
            with pytest.raises(ParameterError, match="need g >= 1 and r >= 1"):
                castelnuovo_N(g, 0, 0)

    @pytest.mark.parametrize("triple", [(961, 30, 960), (2751, 130, 2860)])
    def test_large_genus_equals_displayed_formula(self, triple):
        assert castelnuovo_N(*triple) == _displayed_N(*triple)

    def test_equals_displayed_formula(self):
        for g, r, d in rho_zero_triples(200):
            assert castelnuovo_N(g, r, d) == _displayed_N(g, r, d), (g, r, d)

    def test_rectangles_equal_their_transpose(self):
        # N counts standard tableaux of the (r+1) x m rectangle, so the
        # displayed formula on the orientation with fewer rows is cheap;
        # rows = r + 1 >= 2, and one-row rectangles come in as cols = m = 1
        sides = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 1500, 3000)
        shapes = [(rows, cols) for rows in sides[1:] for cols in sides if rows * cols <= 3000]
        assert len(shapes) == 59
        for rows, cols in shapes:
            few, many = sorted((rows, cols))
            g = rows * cols
            want = _displayed_N(g, few - 1, g + few - 1 - many)
            assert castelnuovo_N(g, rows - 1, g + rows - 1 - cols) == want, (rows, cols)

    def test_thin_rectangles(self):
        # m = 1: one standard tableau of a column; m = 2: Catalan(r+1)
        for r in range(1, 1000):
            assert castelnuovo_N(r + 1, r, 2 * r) == 1
            assert castelnuovo_N(2 * r + 2, r, 3 * r) == math.comb(2 * r + 2, r + 1) // (r + 2)

    def test_equals_brute_zeta_power(self):
        # acceptance runs the full g <= 12 sweep; spot-check the small ones here
        for g, r, d in rho_zero_triples(8):
            spec = GrassmannianSpec(r, d)
            idx = make_index(spec, (0,) * (r + 1))
            assert brute_zeta_integral(spec, idx, g) == castelnuovo_N(g, r, d)


class TestXi:
    def test_values(self):
        assert GrdParams(10, 4, 12).xi == 72
        assert GrdParams(21, 6, 24).xi == 312
        assert GrdParams(4, 1, 3).xi == 9  # r = 1 kills the correction term

    def test_int_pair_is_the_displayed_xi_in_lowest_terms(self):
        for g, r, d in rho_zero_triples(200):
            p = GrdParams(g, r, d)
            num, den = p._xi_pair()
            assert type(num) is int and type(den) is int, (g, r, d)
            assert den > 0 and math.gcd(num, den) == 1, (g, r, d)
            assert (num, den) == p.xi.as_integer_ratio(), (g, r, d)
            displayed = 3 * (g - 1) + Fraction((r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3), g - d + 2 * r + 1)
            assert p.xi == displayed, (g, r, d)


class TestPushforwards:
    def test_push_b_psi_coefficient(self):
        dc = push_b(GrdParams(10, 4, 12))
        assert dc.psi == -504  # -dN

    def test_push_a_lambda_genus21(self):
        p = GrdParams(21, 6, 24)
        assert push_a(p).lam == Fraction(-420, 19) * p.N

    def test_push_c_lambda_genus21(self):
        p = GrdParams(21, 6, 24)
        assert push_c(p).lam == Fraction(-906, 95) * p.N

    def test_push_b_displayed_form_is_integral(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12)):
            p = GrdParams(g, r, d)
            pre = Fraction(d * p.N, 2 * (g - 1))
            lam, psi, *delta = (x / pre for x in push_b(p).coefficients())
            assert lam == 12
            assert psi == -2 * (g - 1)
            assert delta[0] == -1
            for i in range(1, g):
                assert delta[i] == 4 * (g - i) * (g - i - 1)

    @pytest.mark.parametrize("bracket", [tautpush._bracket_a, tautpush._bracket_b, tautpush._bracket_c])
    def test_brackets_are_integral(self, bracket):
        # the module docstring's "integer-coefficient bracket", every triple,
        # behind a prefactor that is an int pair with a positive denominator
        for triple in _TRIPLES_3_60:
            (num, den), coords = bracket(GrdParams(*triple))
            assert type(num) is int and type(den) is int and den > 0, triple
            coords = list(coords)
            assert len(coords) == triple[0] + 2
            assert all(type(x) is int for x in coords), triple

    def test_push_a_matches_displayed_formula(self):
        for triple in _TRIPLES_3_60:
            p = GrdParams(*triple)
            g, d = p.g, p.d
            displayed = [
                6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4),
                -6 * d * (g - 2),
                2 * g * g - g * d + 3 * g - 4 * d - 2,
                *(6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d) for i in range(1, g)),
            ]
            pre = Fraction(d * p.N, 6 * (g - 1) * (g - 2))
            assert list(push_a(p).coefficients()) == [pre * y for y in displayed], triple

    def test_push_c_matches_displayed_formula(self):
        # the bracket of c is the displayed one scaled by 6·den(xi)
        for triple in _TRIPLES_3_60:
            p = GrdParams(*triple)
            g, r, d, x = p.g, p.r, p.d, p.xi
            rr = r * (r + 2)
            displayed = [
                -(g + 3) * x + 5 * rr,
                -d * (r + 1) * (g - 2),
                Fraction(1, 6) * ((g + 1) * x - 3 * rr),
                *((g - i) * (i * x + (g - i - 2) * rr) for i in range(1, g)),
            ]
            pre = Fraction(p.N, 2 * (g - 1) * (g - 2))
            assert list(push_c(p).coefficients()) == [pre * y for y in displayed], triple

    def test_domain_guards(self):
        with pytest.raises(ParameterError):
            push_a(GrdParams(2, 1, 2))  # (g-1)(g-2) vanishes
        with pytest.raises(ParameterError):
            push_c(GrdParams(2, 1, 2))
        with pytest.raises(ParameterError):
            push_b(GrdParams(3, 1, 2))  # rho != 0


class TestPushCombo:
    def test_pure_lambda(self):
        p = GrdParams(4, 1, 3)
        dc = push_combo(TautCombo.of(0, 0, 0, 1), p)
        assert dc.lam == p.N
        assert dc.psi == 0
        assert all(x == 0 for x in dc.delta)

    def test_unit_combos_are_the_named_pushes(self):
        assert [TautCombo.unit(which) for which in tautpush.CLASSES] == [
            TautCombo.of(1, 0, 0, 0), TautCombo.of(0, 1, 0, 0), TautCombo.of(0, 0, 1, 0),
        ]
        p = GrdParams(10, 4, 12)
        assert [push(which, p) for which in "abc"] == [push_a(p), push_b(p), push_c(p)]

    def test_int_coefficients_stay_ints(self):
        # an int or Fraction entry is kept, a str becomes a Fraction; the
        # record is equal to, hashes as and prints as the all-Fraction one
        half = Fraction(1, 2)
        assert TautCombo.of(half, 0, 0, 0).p_a is half
        combo = TautCombo.of(1, "1/2", 0, -3)
        assert [(type(x), x) for x in (combo.p_a, combo.p_b, combo.p_c, combo.p_lam)] == [
            (int, 1), (Fraction, Fraction(1, 2)), (int, 0), (int, -3),
        ]
        fractions = TautCombo(Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3))
        assert combo == fractions and hash(combo) == hash(fractions)
        assert str(combo) == str(fractions) == "(1)a + (1/2)b + (0)c + (-3)λ"

    def test_pure_lambda_skips_out_of_domain_pushes(self):
        # only the lambda term is evaluated, so g = 2 is fine
        dc = push_combo(TautCombo.of(0, 0, 0, 1), GrdParams(2, 1, 2))
        assert dc.lam == 1

    def test_genus10(self):
        p = GrdParams(10, 4, 12)
        dc = push_combo(TautCombo.of(2, -1, -6, 1), p)
        assert dc.lam == 7 * p.N
        assert dc.delta[0] == -p.N
        assert dc.psi == 0

    def test_genus21(self):
        p = GrdParams(21, 6, 24)
        dc = push_combo(TautCombo.of(2, -1, -8, 1), p)
        assert dc.lam == Fraction(2459, 95) * p.N
        assert dc.delta[0] == Fraction(-377, 95) * p.N
        assert dc.psi == 0
        assert dc.is_delta_symmetric()


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(_TRIPLES_3_60),
    st.tuples(*[_SMALL_RATIONALS] * 4),
)
def test_per_N_numerators_times_N_over_L_are_push_combo(triple, coeffs):
    params = GrdParams(*triple)
    combo = TautCombo.of(*coeffs)
    dc = push_combo(combo, params)
    L, ints = per_N_numerators(combo, params)
    assert [Fraction(params.N * x, L) for x in ints] == list(dc.coefficients())
    # linearity, summed class by class as a reference for the fold
    expected = [combo.p_lam * params.N] + [Fraction(0)] * (params.g + 1)
    for p, push_x in zip((combo.p_a, combo.p_b, combo.p_c), (push_a, push_b, push_c)):
        expected = [x + p * y for x, y in zip(expected, push_x(params).coefficients())]
    assert list(dc.coefficients()) == expected


_BRACKET_NAMES = ("_bracket_a", "_bracket_b", "_bracket_c")


@pytest.mark.parametrize("name", _BRACKET_NAMES)
def test_bracket_deltas_have_degree_at_most_two(name):
    # the premise of the second-difference tail in per_N_numerators:
    # delta_1..delta_{g-1} of every bracket have vanishing third differences
    bracket = getattr(tautpush, name)
    for triple in _TRIPLES_3_60:
        _, coords = bracket(GrdParams(*triple))
        deltas = list(coords)[3:]
        third = [w - 3 * z + 3 * y - x for x, y, z, w in zip(deltas, deltas[1:], deltas[2:], deltas[3:])]
        assert not any(third), f"{name} at {triple}: third differences {third}"


def _bracket_fold(combo, params):
    """The per-N class of ``combo`` as Fractions, from the full displayed
    bracket generators (looked up when called) with every delta_i
    evaluated: no running sums."""
    coords = [combo.p_lam] + [Fraction(0)] * (params.g + 1)
    for p, name in zip((combo.p_a, combo.p_b, combo.p_c), _BRACKET_NAMES):
        if p:
            pre, ints = getattr(tautpush, name)(params)  # the prefactor as an int pair (num, den)
            coords = [x + p * Fraction(*pre) * y for x, y in zip(coords, ints)]
    return coords


# g = 2..5 put 1..4 entries in the delta_{i >= 1} tail
_TAIL_TRIPLES = rho_zero_triples(120) + [(961, 30, 960)]
_TAIL_COMBOS = {
    "a": (1, 0, 0, 0),
    "b": (0, 1, 0, 0),
    "c": (0, 0, 1, 0),
    "zero": (0, 0, 0, 0),
    "lambda": (0, 0, 0, 1),
    "gp": (Fraction(-31, 2), Fraction(31, 2), -30, -30),
    "mixed": (Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), Fraction(-11, 4)),
}


def _tail_mismatches(combo):
    """The triples of ``_TAIL_TRIPLES`` where per_N_numerators differs from
    the full bracket fold; out of domain, both must raise."""
    bad = []
    for triple in _TAIL_TRIPLES:
        params = GrdParams(*triple)
        try:
            want = _bracket_fold(combo, params)
        except ParameterError:
            with pytest.raises(ParameterError):
                per_N_numerators(combo, params)
            continue
        L, ints = per_N_numerators(combo, params)
        if [Fraction(x, L) for x in ints] != want:
            bad.append(triple)
    return bad


@pytest.mark.parametrize("coeffs", _TAIL_COMBOS.values(), ids=_TAIL_COMBOS.keys())
def test_per_N_numerators_equal_full_bracket_fold(coeffs):
    assert _tail_mismatches(TautCombo.of(*coeffs)) == []


def test_tail_oracle_catches_a_cubic_bracket(monkeypatch):
    displayed = tautpush._bracket_b

    def cubic_b(params):
        # delta_i + i^3 for i >= 1; coordinate k of the bracket is delta_{k-2}
        pre, coords = displayed(params)
        return pre, (x + (k - 2) ** 3 if k > 2 else x for k, x in enumerate(coords))

    monkeypatch.setattr(tautpush, "_bracket_b", cubic_b)
    # from g = 5 on the tail has a fourth entry, the first one extrapolated
    want = [t for t in _TAIL_TRIPLES if t[0] >= 5]
    assert _tail_mismatches(TautCombo.of(0, 1, 0, 0)) == want


def test_numerators_read_six_bracket_values(monkeypatch):
    # each weighted bracket gives lambda, psi and delta_0..delta_3 when the
    # call is made and nothing more; the zero combo evaluates no bracket
    read = []
    for name in _BRACKET_NAMES:
        displayed = getattr(tautpush, name)

        def counted(params, displayed=displayed, name=name):
            pre, coords = displayed(params)
            return pre, (read.append(name) or x for x in coords)

        monkeypatch.setattr(tautpush, name, counted)
    six_each = sorted(_BRACKET_NAMES * 6)
    _, ints = per_N_numerators(TautCombo.of(1, -1, 1, 0), GrdParams(21, 6, 24))
    assert sorted(read) == six_each
    assert len(list(ints)) == 23
    assert sorted(read) == six_each
    read.clear()
    _, ints = per_N_numerators(TautCombo.of(0, 0, 0, 0), GrdParams(21, 6, 24))
    assert list(ints) == [0] * 23
    assert read == []


# The canonical line m = 1: g = r + 1 and d = 2g - 2, where N = 1.
_CANONICAL = [(g, g - 1, 2 * g - 2) for g in range(3, 201)]


class TestDivisorClass:
    def test_equal_values_have_equal_fields(self):
        a, b = DivisorClass.of(2, 4, [2, 0, 6, 0]), DivisorClass.of(1, 1, [1, 0, 3, 0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert (a.scale, a.nums) == (b.scale, b.nums) == (Fraction(1), (1, 0, 3, 0))
        assert DivisorClass.of(3, 4, [-2, 0, 6, 0]) == DivisorClass(Fraction(3, 2), (-1, 0, 3, 0))

    def test_reconstruction_equals_the_closed_form(self):
        # the solver's denominator D and the brackets' L differ, the values do not
        params = GrdParams(21, 6, 24)
        solved = families._reconstruct(params, families.bridge_pushforward(params))
        assert [D for D, _ in solved] != [per_N_numerators(TautCombo.unit(w), params)[0] for w in "abc"]
        for which in "abc":
            got, want = families.reconstruct(21, 6, 24, which), push(which, params)
            assert got == want and hash(got) == hash(want), which

    def test_zero_class(self):
        zero = DivisorClass.of(5, 3, [0, 0, 0, 0])
        assert (zero.scale, zero.nums) == (0, (0, 0, 0, 0))
        assert zero == DivisorClass.of(0, 1, [1, 2, 3, 4])
        assert str(zero) == "0·λ" and zero.coefficients() == (0, 0, 0, 0)
        pushed = push_combo(TautCombo.of(0, 0, 0, 0), GrdParams(10, 4, 12))
        assert (pushed.scale, pushed.nums) == (0, (0,) * 12) and str(pushed) == "0·λ"

    @pytest.mark.parametrize(
        "scale, nums",
        [
            (2, (2, 4)),  # an int scale, and numerators with gcd 2
            (Fraction(1), (2, 0, 4, 0)),
            (Fraction(-1), (1, 0, 3, 0)),
            (Fraction(0), (1, 0, 3, 0)),
            (Fraction(1), (0, 0, 0, 0)),
            (Fraction(1), [1, 0, 3, 0]),
        ],
    )
    def test_constructor_refuses_a_non_canonical_form(self, scale, nums):
        with pytest.raises(ValueError, match=r"not in canonical form; DivisorClass\.of reduces"):
            DivisorClass(scale, nums)

    def test_copy_and_pickle_go_through_the_constructor(self):
        dc = push("a", GrdParams(21, 6, 24))
        for twin in (copy.copy(dc), copy.deepcopy(dc), pickle.loads(pickle.dumps(dc))):
            assert type(twin) is DivisorClass and twin == dc and hash(twin) == hash(dc)
        bad = object.__new__(DivisorClass)  # fields set past the check
        object.__setattr__(bad, "scale", Fraction(1))
        object.__setattr__(bad, "nums", (2, 0, 4, 0))
        for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            with pytest.raises(ValueError):
                rebuild(bad)

    def test_reads_are_the_fraction_coordinates(self):
        dc = push_combo(TautCombo.of(2, -1, -8, 1), GrdParams(21, 6, 24))
        coords = dc.coefficients()
        assert all(type(x) is Fraction for x in coords)
        assert (dc.lam, dc.psi, dc.delta, dc.g) == (coords[0], coords[1], coords[2:], 21)

    def test_prints_under_the_default_digit_cap(self):
        # the smallest rho = 0 triple whose N has more than 4300 digits
        params = GrdParams(3162, 50, 3150)
        dc = push("b", params)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            text = str(dc)
            sys.set_int_max_str_digits(0)
            assert len(str(params.N)) > 4300
            lam, *rest = dc.coefficients()
            names = ["ψ", *(f"δ{i}" for i in range(params.g))]
            assert text == " + ".join([f"{lam}·λ", *(f"{x}·{name}" for x, name in zip(rest, names) if x)])
        finally:
            sys.set_int_max_str_digits(limit)


class TestCanonicalLine:
    """On the line m = 1 the g^r_d is the canonical series and N = 1, so
    classical results fix the pushforwards without the paper's formulas.
    The brackets' psi coefficients, -4(g-1) for a, -2(g-1) for b and -g
    for c, say that the series is normalized at the marked point."""

    def test_line_is_rho_zero_with_N_1(self):
        assert set(_CANONICAL) == {t for t in rho_zero_triples(200) if t[1] == t[0] - 1 and t[0] >= 3}
        assert all(castelnuovo_N(*t) == 1 for t in _CANONICAL)

    def test_c_is_binomial_psi_minus_the_weierstrass_divisor(self):
        """Cukierman, *Families of Weierstrass points*, Duke Math. J. 58
        (1989): the Weierstrass divisor on the pointed moduli space is

            W = -lambda + C(g+1, 2) psi - sum_{i=1}^{g-1} C(g-i+1, 2) delta_i.

        Weierstrass points are where the canonical series fails to
        separate (g-1)-jets at p, and with the series normalized at p the
        jet bundle has c_1 = C(g, 2) psi; so the pushforward of c is
        C(g, 2) psi - W, on every coordinate: lambda 1, psi -g, delta_0 0
        and delta_i C(g-i+1, 2)."""
        for g, r, d in _CANONICAL:
            W = [-1, math.comb(g + 1, 2), 0, *(-math.comb(g - i + 1, 2) for i in range(1, g))]
            want = [-x for x in W]
            want[1] += math.comb(g, 2)
            assert push_c(GrdParams(g, r, d)) == DivisorClass.of(1, 1, want), g  # N = 1 here

    def test_a_and_b_agree_with_mumfords_kappa(self):
        """Mumford, *Towards an enumerative geometry of the moduli space of
        curves* (1983): kappa_1 = 12 lambda - delta.  With c_1(L) = K - psi
        on the interior, b = kappa_1 - 2(g-1) psi and a = kappa_1 - 4(g-1) psi,
        so both have lambda 12 and delta_0 -1, and a - b = -2(g-1) psi on
        every coordinate, the delta_i included.  The delta_i (i >= 1) of a
        and b alone depend on how the limit series is twisted, and no
        outside value is claimed for them."""
        for g, r, d in _CANONICAL:
            params = GrdParams(g, r, d)
            a, b = push_a(params), push_b(params)
            assert (a.lam, a.delta[0], a.psi) == (12, -1, -4 * (g - 1)), g
            assert (b.lam, b.delta[0], b.psi) == (12, -1, -2 * (g - 1)), g
            diff = [x - y for x, y in zip(a.coefficients(), b.coefficients())]
            assert diff == [0, -2 * (g - 1)] + [0] * g, g

    def test_a_minus_b_is_pure_psi_only_on_the_line(self):
        params = GrdParams(6, 2, 6)  # m = 2, off the line
        diff = [x - y for x, y in zip(push_a(params).coefficients(), push_b(params).coefficients())]
        assert diff[0] and any(diff[2:])  # not a multiple of psi


def test_rho_zero_triples():
    triples = rho_zero_triples(12)
    assert (4, 1, 3) in triples
    assert (6, 2, 6) in triples
    assert (10, 4, 12) in triples
    assert (12, 11, 22) in triples
    assert all(rho(g, r, d) == 0 and r >= 1 for g, r, d in triples)
    assert triples == sorted(triples)


def _refuses(read, triple):
    try:
        read(*triple)
    except ParameterError:
        return True
    return False


def test_one_domain_over_a_box_of_raw_ints():
    """GrdParams is the one check of a triple: in a box of raw ints it
    accepts exactly the rho_zero_triples there, every other reader of a
    triple refuses the rest, and reconstruction adds only g >= 5."""
    box = list(itertools.product(range(-2, 41), range(-2, 9), range(-2, 51)))
    accepted, leaks = [], []
    for triple in box:
        if not _refuses(GrdParams, triple):
            accepted.append(triple)
            continue
        for read in (castelnuovo_N, identity_castelnuovo, identity_weierstrass_a):
            if not _refuses(read, triple):
                leaks.append((read.__name__, triple))
    assert leaks == []
    assert accepted == [(g, r, d) for g, r, d in rho_zero_triples(40) if r <= 8 and d <= 50]
    reconstructed = [t for t in box if not _refuses(families._reconstruct_params, t)]
    assert reconstructed == [t for t in accepted if t[0] >= 5]


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: castelnuovo_N(-2, 1, 0), r"need g >= 1 and r >= 1; got \(g,r,d\)=\(-2,1,0\)"),  # rho = 0, m = -1
        (lambda: GrdParams(0, 0, 0), "need g >= 1"),
        (lambda: push("x", GrdParams(6, 2, 6)), "unknown tautological class 'x'"),
    ],
)
def test_named_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()
