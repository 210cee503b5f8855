import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnslopes import tautpush
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
        with pytest.raises(ParameterError, match=r"r >= 0"):
            castelnuovo_N(0, -1, -1)

    def test_non_integral_count_is_named_error(self, monkeypatch):
        # the 2 x 5 rectangle takes one step, (252+1) / (6+1), which leaves a remainder
        monkeypatch.setattr(tautpush, "comb", lambda n, k: math.comb(n, k) + 1)
        with pytest.raises(ArithmeticError, match=r"\(10,4,12\)"):
            castelnuovo_N(10, 4, 12)

    def test_empty_and_one_row_rectangles_count_one(self):
        # m = 0 is the empty rectangle; r = 0 (so d = 0) is a single row of g boxes
        for r in range(6):
            assert castelnuovo_N(0, r, r) == 1
        for g in range(6):
            assert castelnuovo_N(g, 0, 0) == 1

    @pytest.mark.parametrize("triple", [(961, 30, 960), (2751, 130, 2860)])
    def test_large_genus_equals_displayed_formula(self, triple):
        assert castelnuovo_N(*triple) == _displayed_N(*triple)

    def test_equals_displayed_formula(self):
        for g, r, d in rho_zero_triples(200):
            assert castelnuovo_N(g, r, d) == _displayed_N(g, r, d), (g, r, d)

    def test_rectangles_equal_their_transpose(self):
        # N counts standard tableaux of the (r+1) x m rectangle, so the
        # displayed formula on the orientation with fewer rows is cheap
        sides = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 1500, 3000)
        shapes = [(rows, cols) for rows in sides for cols in sides if rows * cols <= 3000]
        assert len(shapes) == 70
        for rows, cols in shapes:
            few, many = sorted((rows, cols))
            g = rows * cols
            want = _displayed_N(g, few - 1, g + few - 1 - many)
            assert castelnuovo_N(g, rows - 1, g + rows - 1 - cols) == want, (rows, cols)

    def test_thin_rectangles(self):
        # m = 1: one standard tableau of a column; m = 2: Catalan(r+1)
        for r in range(1000):
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


# g = 1..5 put 0..4 entries in the delta_{i >= 1} tail
_TAIL_TRIPLES = [(1, 0, 0)] + rho_zero_triples(120) + [(961, 30, 960)]
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
            W = DivisorClass(
                -1, math.comb(g + 1, 2), (0,) + tuple(-math.comb(g - i + 1, 2) for i in range(1, g))
            )
            want = [-x for x in W.coefficients()]
            want[1] += math.comb(g, 2)
            assert list(push_c(GrdParams(g, r, d)).coefficients()) == want, g

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


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: castelnuovo_N(-2, 1, 0), r"need g-d\+r >= 0; got -1"),  # rho = 0, m = -1
        (lambda: GrdParams(0, 0, 0), "need g >= 1"),
        (lambda: push_b(GrdParams(1, 0, 0)), "pushforward of b needs g >= 2"),
        (lambda: push("x", GrdParams(6, 2, 6)), "unknown tautological class 'x'"),
    ],
)
def test_named_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()
