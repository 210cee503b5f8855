import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnslopes import families, tautpush
from bnslopes.divisors import SlopeReport, slope_report
from bnslopes.families import (
    ReconstructionError,
    _aspect_report,
    _epsilon_report,
    _forward_eliminate,
    _oracle_spec_report,
    _per_N_push,
    _reach_counts,
    _solve_unique,
    _structure_report,
    bridge_matrix,
    bridge_pushforward,
    epsilon_matrix,
    identity_castelnuovo,
    identity_pieri,
    identity_weierstrass_a,
    identity_weierstrass_c,
    matrix_determinant,
    pencil_degree,
    pencil_matrix,
    pullbacks,
    reconstruct,
    relation_multiple,
    suite_reports,
    tails_matrix,
)
from bnslopes.schubert import GrassmannianSpec, _balanced_tuples, balanced_pairs
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    castelnuovo_N,
    push,
    push_combo,
    rho_zero_triples,
)


def clear(rows):
    """Dense rows of ints and Fractions, each multiplied by the lcm L of
    its entries' denominators so that it holds ints only, as a caller
    hands rational rows to the eliminator, and the product of the L: for
    square rows det(cleared) = det(rows) * prod L."""
    out, scale = [], 1
    for row in rows:
        L = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * L) for x in row])
        scale *= L
    return out, scale


def sparse(rows, rhs=None):
    """Dense rows, and a right-hand side under the key len(row), as the
    eliminator's sparse int rows of their nonzero entries; a row holding a
    Fraction is cleared first (see clear), which keeps the solutions."""
    if rhs is not None:
        rows = [list(row) + [b] for row, b in zip(rows, rhs)]
    return [{j: x for j, x in enumerate(row) if x} for row in clear(rows)[0]]


def values(per_N):
    """A class given as (D, int numerators) as its list of values."""
    D, xs = per_N
    return [Fraction(x, D) for x in xs]


def as_fractions(sol):
    """A solver solution (D, numerators) as its values, after checking
    its shape: int numerators over D, the least positive common
    denominator of the values."""
    D, xs = sol
    assert type(D) is int and D > 0 and all(type(x) is int for x in xs), sol
    vs = values(sol)
    assert D == lcm(*(v.denominator for v in vs)), sol
    return vs


def solve_one(rows, ncols):
    """The solver on a single right-hand side, raising its error the way
    reconstruct does; the solution comes back as its values."""
    [sol] = _solve_unique(rows, ncols, 1)
    if isinstance(sol, ReconstructionError):
        raise sol
    return as_fractions(sol)


def gauss_jordan(a, b, n):
    """Reference solver, independent of the eliminator: dense Gauss-Jordan
    over Fractions on the augmented matrix [a | b] with n unknowns.
    Returns the unique solution, or "inconsistent" or "underdetermined",
    checked in that order as the solver does."""
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[rank])]
        rank += 1
    if any(row[n] for row in m[rank:]):
        return "inconsistent"
    if rank < n:
        return "underdetermined"
    return [row[n] for row in m[:n]]


def per_N_class(which, params):
    """1/N times the pushforward of a, b or c as a DivisorClass, from the
    suite's closed-form side."""
    L, ints = _per_N_push(which, params)
    return DivisorClass.from_coefficients(Fraction(x, L) for x in ints)


def cofactor_det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _table(r, d):
    """The Pieri table of G(r, P^d) alone."""
    return families._zeta_layers(GrassmannianSpec(r, d))


def _spec_report(r, d, layers):
    """The oracle report of G(r, P^d) on ``layers``, with the reach
    count of its own box."""
    return _oracle_spec_report(r, d, layers, _reach_counts(layers, r, d - r)[-1])


def _aspects(g, r, d):
    params = GrdParams(g, r, d)
    return _aspect_report(params, params.N)


def unit_class(g: int, name: str, i: int = 0) -> DivisorClass:
    lam = Fraction(1 if name == "lam" else 0)
    psi = Fraction(1 if name == "psi" else 0)
    delta = [Fraction(0)] * g
    if name == "delta":
        delta[i] = Fraction(1)
    return DivisorClass(lam, psi, tuple(delta))


class TestPullbackTables:
    def test_lambda_pulls_back_cleanly(self):
        g = 8
        bridge, tails, degrees = pullbacks(unit_class(g, "lam"))
        assert bridge.coefficients() == (1, 0, 0, 0)
        assert not any(tails)
        assert all(x == 0 for x in degrees)

    def test_delta_g_minus_2_hits_psi(self):
        g = 8
        bridge, _, _ = pullbacks(unit_class(g, "delta", g - 2))
        assert bridge.psi == -1
        assert bridge.lam == bridge.delta[0] == bridge.delta[1] == 0

    def test_psi_degrees(self):
        g = 8
        bridge, tails, degrees = pullbacks(unit_class(g, "psi"))
        assert bridge.coefficients() == (0, 0, 0, 0)
        assert not any(tails)
        assert degrees == tuple(Fraction(2 * h - 1) for h in range(1, g))

    def test_middle_delta_cancels_on_pencils(self):
        g = 8
        _, _, degrees = pullbacks(unit_class(g, "delta", g // 2))
        assert degrees[g // 2 - 1] == 0

    def test_integral_entries_are_ints(self):
        for g in (5, 8, 21, 60):
            rows = pencil_matrix(g) + bridge_matrix(g) + tails_matrix(g)
            assert all(type(x) is int for row in rows for x in row.values()), g

    @pytest.mark.parametrize("g", [5, 8, 21])
    def test_tails_values_of_unit_classes(self, g):
        # the coefficients of eps_2..eps_{g-2} as the tails docstring
        # displays them, so the table's (g-1)(g-2) scale must be divided out
        eps = range(2, g - 1)
        _, tails, _ = pullbacks(unit_class(g, "delta", 1))
        assert tails == tuple(Fraction(-(g - i) * (g - i - 1), (g - 1) * (g - 2)) for i in eps)
        for k in eps:
            _, tails, _ = pullbacks(unit_class(g, "delta", k))
            assert tails == tuple(int(i == k) for i in eps), k
        _, tails, _ = pullbacks(unit_class(g, "delta", g - 1))
        assert tails == tuple(Fraction(-(g - i) * (i - 1), g - 2) for i in eps)

    def test_pencil_degrees_are_ints(self):
        # r(r+1)/2 is integral for odd and even r alike
        for g, r, d in ((5, 4, 8), (6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24), (120, 23, 138)):
            params = GrdParams(g, r, d)
            for h in range(1, g):
                degrees = pencil_degree(params, h)
                assert all(type(x) is int for x in degrees), (g, h)
                assert degrees == (-d * d, -(2 * (g - h) - 1) * d, -(r * h + Fraction(r * (r + 1), 2))), (g, h)


class TestEpsilonMatrix:
    def test_g5(self):
        m, nonsingular = epsilon_matrix(5)
        assert m == sparse(((4, 0), (-1, 2)))
        assert matrix_determinant(m) == 8
        assert nonsingular

    def test_g6(self):
        m, nonsingular = epsilon_matrix(6)
        assert m == sparse(((5, 0, 0), (-1, 1, 3), (0, -1, 2)))
        assert matrix_determinant(m) == 25
        assert nonsingular

    def test_rows_hold_at_most_three_int_entries(self):
        for g in range(5, 61):
            m, _ = epsilon_matrix(g)
            assert len(m) == g - 3, g
            for row in m:
                assert 1 <= len(row) <= 3 and set(row) <= set(range(g - 3)), g
                assert all(type(x) is int and x for x in row.values()), g

    def test_range_nonsingular(self):
        for g in range(5, 31):
            assert epsilon_matrix(g)[1], g

    def test_determinant_closed_form(self):
        for g in range(5, 61):
            det = matrix_determinant(epsilon_matrix(g)[0])
            assert det == (g - 1) ** 2 * (g - 4) // 2 and type(det) is Fraction, g

    def test_small_g_rejected(self):
        with pytest.raises(ParameterError):
            epsilon_matrix(4)

    def test_report_eliminates_once_per_g(self, monkeypatch):
        calls = []

        def counted(rows, ncols):
            calls.append(ncols)
            return _forward_eliminate(rows, ncols)

        monkeypatch.setattr(families, "_forward_eliminate", counted)
        rep = _epsilon_report()
        assert calls == [g - 3 for g in range(5, 31)]
        assert (rep.passed, rep.lhs, rep.rhs, rep.detail) == (True, "nonsingular", "nonsingular", "")

    def test_report_names_the_first_g_whose_determinant_differs(self, monkeypatch):
        real = families.matrix_determinant

        def perturbed(m):  # off by one at g = 10 and g = 12; both stay nonzero
            return real(m) + (len(m) in (7, 9))

        monkeypatch.setattr(families, "matrix_determinant", perturbed)
        assert [g for g in range(5, 31) if not epsilon_matrix(g)[1]] == [10, 12]
        rep = _epsilon_report()
        assert not rep.passed
        assert rep.lhs == "determinant ≠ (g-1)²(g-4)/2 at g=10"


class TestBridgeQuotient:
    # the known bridge classes are 1/N times the pushforwards, so they
    # are compared with the per-N closed form
    def test_push_b_differs_by_stated_multiple(self):
        g, r, d = 10, 4, 12
        params = GrdParams(g, r, d)
        got, _, _ = pullbacks(per_N_class("b", params))
        _, want, _ = bridge_pushforward(params)
        mu = relation_multiple(got.coefficients(), values(want))
        assert mu == Fraction(d, 2 * (g - 1))  # = 28/N with N = 42
        assert mu * params.N == 28

    def test_raw_comparison_fails_without_quotient(self):
        g, r, d = 10, 4, 12
        params = GrdParams(g, r, d)
        got, _, _ = pullbacks(per_N_class("b", params))
        _, want, _ = bridge_pushforward(params)
        assert list(got.coefficients()) != values(want)
        assert relation_multiple(got.coefficients(), values(want)) is not None

    def test_all_classes_all_triples(self):
        for g, r, d in ((6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which, want in zip("abc", bridge_pushforward(params)):
                got, _, _ = pullbacks(per_N_class(which, params))
                mu = relation_multiple(got.coefficients(), values(want))
                assert mu is not None, (g, which)
                # N times the known class is the bridge class of the pushforward
                full, _, _ = pullbacks(push(which, params))
                scaled = [params.N * x for x in values(want)]
                assert relation_multiple(full.coefficients(), scaled) == params.N * mu, (g, which)
                # on the ints cross-multiplied to L*D, as the suite compares
                # them, the multiple is L*D times the per-N one
                (L, ints), (D, nums) = _per_N_push(which, params), want
                got_ints = [v * D for v in families._apply(bridge_matrix(g), ints)]
                assert relation_multiple(got_ints, [y * L for y in nums]) == L * D * mu, (g, which)

    def test_difference_off_the_relation(self):
        want = values(bridge_pushforward(GrdParams(10, 4, 12))[1])
        got = [want[0] + 1, *want[1:]]
        assert relation_multiple(got, want) is None
        assert relation_multiple(want, want) == 0

    def test_classes_are_int_numerators_over_one_denominator(self):
        # D = 3(g-1) den(xi) for all three, and the values are the
        # docstring's T, U and V brackets
        for g, r, d in rho_zero_triples(40):
            params = GrdParams(g, r, d)
            T = Fraction(2 * d * (d - 2 * g + 2), 3 * (g - 1))
            U = Fraction(d, g - 1)
            V = -params.xi / (3 * (g - 1))
            expected = [
                [y - x, 3 * x - 4 * y, 0, y - x] for x, y in ((T, U), (0, U), (V, 0))
            ]
            got = bridge_pushforward(params)
            assert [D for D, _ in got] == [3 * (g - 1) * params.xi.denominator] * 3, (g, r, d)
            assert all(type(y) is int for _, nums in got for y in nums), (g, r, d)
            assert [values(c) for c in got] == expected, (g, r, d)


class TestLemmaConsistency:
    # the pencil degrees and tails vanishing must hold for the closed-form
    # pushforwards themselves
    def test_pencil_degrees_match(self):
        # the known degrees are 1/N times those of the pushforwards
        for g, r, d in ((6, 2, 6), (10, 4, 12)):
            params = GrdParams(g, r, d)
            known = zip(*(pencil_degree(params, h) for h in range(1, g)))
            for which, expected in zip("abc", known):
                _, _, degrees = pullbacks(per_N_class(which, params))
                assert degrees == expected, (g, which)
                _, _, degrees = pullbacks(push(which, params))
                assert degrees == tuple(params.N * x for x in expected), (g, which)

    def test_tails_pullback_vanishes(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which in "abc":
                _, tails, _ = pullbacks(push(which, params))
                assert not any(tails), (g, which)

    def test_lemma_data_shape(self):
        # g-3 tails rows and g-1 pencil rows, sparse over the g+2 columns
        # (lambda, psi, delta_0..delta_{g-1}), storing nonzero entries only
        g = 8
        tails, pencils = tails_matrix(g), pencil_matrix(g)
        assert (len(tails), len(pencils)) == (5, 7)
        assert all(0 <= j <= g + 1 and x != 0 for row in tails + pencils for j, x in row.items())
        assert pencils[g // 2 - 1] == {1: g - 1}


# every rho = 0 triple with 3 <= g <= 200 (and r >= 1): 897 of them
_TRIPLES_3_200 = [t for t in rho_zero_triples(200) if t[0] >= 3]


class TestClassicalTestCurves:
    """Test curves from outside the paper's own families, on every rho = 0
    triple with 3 <= g <= 200, read from the closed forms' per-N
    numerators (L, ints): a per-N coordinate x / L."""

    def test_elliptic_tail_pencil_meets_a_b_and_c_in_degree_zero(self):
        """The elliptic-tail pencil (Harris-Morrison, Moduli of Curves,
        GTM 187, 1998, ch. 3): a fixed general curve of genus g-1, which
        carries the marked point, joined at a base point to a pencil of
        plane cubics.  It has degree 1 on lambda, 12 on delta_0 and -1 on
        the class of the joining node; the marked point lies on the
        genus-(g-1) side, so that class is delta_{g-1}, and psi and every
        other delta_i have degree 0.

        The value 0 for a, b and c is not derived here from outside: an
        argument by limit linear series on C and the moving elliptic tail
        (Eisenbud-Harris, Invent. Math. 85, 1986) is not written out.  So
        this checks a pipeline identity, lambda + 12 delta_0 - delta_{g-1}
        = 0 per N, which the unique solution of the reconstruction system
        implies at g >= 5, on every triple, g = 3 and 4 included."""
        for g, r, d in _TRIPLES_3_200:
            params = GrdParams(g, r, d)
            for which in "abc":
                _, (lam, _, delta0, *delta) = _per_N_push(which, params)
                assert lam + 12 * delta0 - delta[-1] == 0, (g, r, d, which)

    def test_fixed_curve_fiber_of_c_is_the_pluecker_count(self):
        """The fiber over a fixed general curve C, the marked point p moving
        along C: psi has degree 2g-2 on it, lambda and every delta_i 0.

        The pointed ramification divisor W, the (C, p) at which one of the
        N series on C ramifies at p, is the degeneracy locus of V ->
        J^r_p(L); with L normalized at p, c_1(J^r_p(L)) = C(r+1, 2) psi, so
        W = N C(r+1, 2) psi - c on the interior.  On the fiber W counts the
        ramification points of each of the N series with their weights,
        and by Pluecker's formula (Arbarello-Cornalba-Griffiths-Harris,
        Geometry of Algebraic Curves I, 1985, ch. I) a g^r_d has total
        ramification weight (r+1)d + (r+1)r(g-1).  So per N,
        (C(r+1, 2) - psi_c)(2g-2) = (r+1)d + (r+1)r(g-1), which is
        psi_c (2g-2) = -(r+1)d."""
        for g, r, d in _TRIPLES_3_200:
            L, (_, psi, *_) = _per_N_push("c", GrdParams(g, r, d))
            weight = (r + 1) * d + (r + 1) * r * (g - 1)
            assert (comb(r + 1, 2) * L - psi) * (2 * g - 2) == weight * L, (g, r, d)
            assert psi * (2 * g - 2) == -(r + 1) * d * L, (g, r, d)

    def test_pencils_h_and_g_minus_h_sum_to_the_fixed_curve_fiber(self):
        """Pencil families h and g-h (Harris-Morrison, GTM 187, ch. 3) move
        the marked point along the genus-h and the genus-(g-h) component
        of one fixed curve.  Their rows of pencil_matrix sum to the fiber
        row, degree 2g-2 on psi and 0 elsewhere, as their delta terms
        cancel; so their known per-N degrees sum to the fiber's values,
        a -2d^2, b -2d(g-1) and c -(r+1)d, and so does (2g-2) psi of each
        closed form.  For c that value is Pluecker's count (the test
        above); for a and b no outside derivation is claimed, and the
        test checks that pencil_degree and the closed forms agree."""
        for g, r, d in _TRIPLES_3_200:
            params = GrdParams(g, r, d)
            fiber = (-2 * d * d, -2 * d * (g - 1), -(r + 1) * d)
            rows = pencil_matrix(g)
            for h in range(1, g):
                one, other = rows[h - 1], rows[g - h - 1]
                both = {j: one.get(j, 0) + other.get(j, 0) for j in one.keys() | other.keys()}
                assert {j: x for j, x in both.items() if x} == {1: 2 * g - 2}, (g, h)
                degrees = zip(pencil_degree(params, h), pencil_degree(params, g - h))
                assert tuple(x + y for x, y in degrees) == fiber, (g, r, d, h)
            for which, value in zip("abc", fiber):
                L, (_, psi, *_) = _per_N_push(which, params)
                assert psi * (2 * g - 2) == value * L, (g, r, d, which)


class TestIdentities:
    def test_castelnuovo(self):
        for g, r, d in ((4, 1, 3), (6, 2, 6), (10, 4, 12)):
            rep = identity_castelnuovo(g, r, d)
            assert rep.passed, rep
            assert "brute" in rep.detail

    def test_castelnuovo_brute_gate(self, monkeypatch):
        def table(spec):
            raise AssertionError("Pieri table built past _BRUTE_LIMIT")

        monkeypatch.setattr(families, "_zeta_layers", table)
        rep = identity_castelnuovo(18, 17, 34)  # C(35, 18) indices
        assert rep.passed and rep.detail == "closed=1"
        # the patch is live: below the limit the table is built
        with pytest.raises(AssertionError, match="Pieri table"):
            identity_castelnuovo(6, 2, 6)
        # the gate counts C(d+1, r+1): C(36, 6) = 1947792 is admitted, where
        # C(37, 6) or C(36, 7) would both refuse G(5, P^35)
        with pytest.raises(AssertionError, match="Pieri table"):
            identity_castelnuovo(36, 5, 35)

    def test_castelnuovo_without_brute(self):
        assert identity_castelnuovo(6, 2, 6, brute=False).detail == "closed=5"

    def test_weierstrass_a_values(self):
        rep = identity_weierstrass_a(4, 1, 3)
        assert rep.passed
        assert "integral=1" in rep.detail
        rep = identity_weierstrass_a(10, 4, 12)
        assert rep.passed
        assert "integral=14" in rep.detail  # -2(g-2)*14 = -224 = -2*12*6*42/27

    def test_weierstrass_a_all(self):
        for g, r, d in ((6, 2, 6), (8, 3, 9), (21, 6, 24)):
            assert identity_weierstrass_a(g, r, d).passed, (g, r, d)

    def test_weierstrass_c_values(self):
        rep = identity_weierstrass_c(10, 4, 12)
        assert rep.passed
        assert "integral=70" in rep.detail  # 70 + 42 = 112 = 72*42/27

    def test_weierstrass_c_all(self):
        for g, r, d in ((6, 2, 6), (9, 2, 8), (21, 6, 24)):
            assert identity_weierstrass_c(g, r, d).passed, (g, r, d)

    def test_weierstrass_c_needs_r_at_least_2(self):
        with pytest.raises(ParameterError):
            identity_weierstrass_c(4, 1, 3)

    def test_weierstrass_vanishing_cycle_case(self):
        # at (3,2,4) the pattern indices overflow the box: both sides
        # degenerate to 0 = 0 and the identities still hold
        assert identity_weierstrass_a(3, 2, 4).passed
        assert identity_weierstrass_c(3, 2, 4).passed

    def test_pieri_identity(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12), (21, 6, 24), (3, 2, 4)):
            assert identity_pieri(g, r, d).passed, (g, r, d)

    def test_identities_read_the_closed_form_that_families_reads(self, monkeypatch):
        # the identity suites read the int closed form as the oracle does,
        # at every pattern, those that overflow the box included: one more
        # than it fails every report and raises nothing
        real = families._closed_form

        def one_more(spec, b, k):
            num, den = real(spec, b, k)
            return num + den, den

        monkeypatch.setattr(families, "_closed_form", one_more)
        reports = suite_reports("castelnuovo") + suite_reports("weierstrass")
        assert len(reports) == 85
        assert [rep for rep in reports if rep.passed] == []
        assert {rep.check for rep in reports} == {"castelnuovo", "weierstrass_a", "weierstrass_c", "aspects"}
        # at (3, 2, 4) the patterns of a and c overflow the box
        assert any(rep.params == {"g": 3, "r": 2, "d": 4} for rep in reports)

    def test_an_unbalanced_pattern_is_a_failed_check(self):
        # the builder reads the closed form unvalidated: a pattern off the
        # dimension balance, such as zeta^(g+1) or zeta^(g-1) against the
        # fundamental class, is a failed check and never a BalanceError
        params, b = GrdParams(6, 2, 6), (0, 0, 0)
        for k, layers in ((7, None), (5, families._brute_table(params))):
            rep = families._pattern_report("castelnuovo", params, b, k, layers, 1, 0, params.N, "closed")
            assert not rep.passed, rep

    @pytest.mark.parametrize("k, detail", [(7, "closed=7/12 brute=0"), (-1, "closed=0 brute=0")])
    def test_an_exponent_outside_the_table_reads_zero(self, k, detail):
        # the table of G(2, P^6) has layers 0..6: past them, and before
        # them, it reads 0 and never an IndexError or a layer from the end
        params = GrdParams(6, 2, 6)
        layers = families._brute_table(params)
        assert len(layers) == 7
        rep = families._pattern_report("castelnuovo", params, (0, 0, 0), k, layers, 1, 0, 5, "closed")
        assert not rep.passed and rep.detail == detail, rep


class TestAspects:
    def test_genus10(self):
        assert _aspects(10, 4, 12).lhs == "(14,28)"

    def test_genus4(self):
        assert _aspects(4, 1, 3).lhs == "(1,1)"

    def test_genus21_sums_to_N(self):
        N = GrdParams(21, 6, 24).N
        n1, n2 = Fraction(16 * N, 40), Fraction(24 * N, 40)
        rep = _aspects(21, 6, 24)
        assert rep.lhs == f"({n1},{n2})"
        assert n1 + n2 == N and rep.rhs == f"sum={N}" and rep.passed

    def test_reports_with_schubert_cross_check(self):
        for g, r, d in rho_zero_triples(10):
            rep = _aspects(g, r, d)
            assert rep.passed, rep


class TestSolver:
    def test_unique_solution(self):
        rows = sparse(((1, 1), (1, -1), (2, 0)), (3, 1, 4))
        assert solve_one(rows, 2) == [Fraction(2), Fraction(1)]
        assert _solve_unique(rows, 2, 1) == [(1, [2, 1])]
        assert gauss_jordan(((1, 1), (1, -1), (2, 0)), (3, 1, 4), 2) == [2, 1]
        # one least common denominator for the unknowns, whatever the pivots
        rows = sparse(((4, 0), (0, -6), (2, 3)), (2, 2, 0))
        assert _solve_unique(rows, 2, 1) == [(6, [3, -2])]
        assert gauss_jordan(((4, 0), (0, -6), (2, 3)), (2, 2, 0), 2) == [Fraction(1, 2), Fraction(-1, 3)]

    def test_inconsistent(self):
        with pytest.raises(ReconstructionError, match="inconsistent"):
            solve_one(sparse(((1, 0), (1, 0)), (1, 2)), 2)

    def test_underdetermined(self):
        with pytest.raises(ReconstructionError, match="underdetermined"):
            solve_one(sparse(((1, 1), (2, 2)), (1, 2)), 2)

    def test_elimination_skips_zero_column_and_tracks_swaps(self):
        m = ((0, 0, 3), (0, 2, 5), (0, 4, 1))
        pivots, rest, _ = _forward_eliminate(sparse(m), 3)
        assert (sorted(pivots), matrix_determinant(sparse(m))) == ([1, 2], 0)
        assert rest == [{}]
        m = ((0, 2), (3, 1))
        pivots, rest, _ = _forward_eliminate(sparse(m), 2)
        assert (sorted(pivots), matrix_determinant(sparse(m))) == ([0, 1], -6)
        assert list(pivots) == [1, 0] and rest == []
        assert [pivots[c] for c in sorted(pivots)] == [{0: 3, 1: 1}, {1: 2}]

    def test_negative_column_key_is_value_error(self):
        with pytest.raises(ValueError, match="negative column key -1"):
            _solve_unique([{-1: 1, 0: 1, 2: 5}, {0: 2, 2: 4}], 2, 1)
        # a child process with a time bound: a determinant that never
        # returns fails this test instead of hanging the suite
        code = (
            "from bnslopes.families import matrix_determinant\n"
            "try:\n    matrix_determinant([{0: 4}, {-1: -1, 0: 2}])\n"
            "except ValueError as exc:\n    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert (child.returncode, child.stdout) == (0, "row has a negative column key -1\n"), child.stderr

    def test_against_cofactor_expansion_and_substitution(self):
        def rank(m):
            ncols = len(m[0])
            for k in range(min(len(m), ncols), 0, -1):
                for rs in combinations(m, k):
                    for cs in combinations(range(ncols), k):
                        if cofactor_det([[row[j] for j in cs] for row in rs]):
                            return k
            return 0

        rng = random.Random(7)

        def entry():
            return rng.choice((0, 0, 1, -1, rng.randint(-9, 9)))

        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            det = cofactor_det(m)
            got = matrix_determinant(sparse(m))
            assert got == det and type(got) is Fraction, m
            if det:
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                # one redundant row keeps the system over-determined but consistent
                rows = m + [[sum(c) for c in zip(*m)]]
                rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
                sol = solve_one(sparse(rows, rhs), n)
                assert sol == x == gauss_jordan(rows, rhs, n), m

        # rectangular systems with fractional entries, some with all-zero
        # columns or a perturbed right-hand side
        outcomes = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            zero = {j for j in range(n) if rng.random() < 0.1}
            a = [
                [Fraction(0) if j in zero else Fraction(entry(), rng.randint(1, 3)) for j in range(n)]
                for _ in range(n + rng.randint(0, 3))
            ]
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
            perturbed = rng.random() < 0.3
            if perturbed:
                b[rng.randrange(len(b))] += 1
            r = rank(a)
            if rank([row + [bi] for row, bi in zip(a, b)]) > r:
                outcome = "inconsistent"
            elif r < n:
                outcome = "underdetermined"
            else:
                outcome = "unique"
            outcomes.add(outcome)
            reference = gauss_jordan(a, b, n)
            if outcome != "unique":
                assert reference == outcome, a
                with pytest.raises(ReconstructionError, match=outcome):
                    solve_one(sparse(a, b), n)
                continue
            sol = solve_one(sparse(a, b), n)
            assert sol == reference, a
            assert [sum(ai * yi for ai, yi in zip(row, sol)) for row in a] == b, a
            if not perturbed:
                assert sol == x, a
        assert outcomes == {"inconsistent", "underdetermined", "unique"}

    def test_determinant_with_mixed_denominators_and_large_entries(self):
        rng = random.Random(11)

        def entry():
            return rng.choice((
                0,
                rng.randint(-9, 9),
                Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                rng.choice((-1, 1)) * rng.randint(10**30, 10**40),
                Fraction(rng.randint(10**30, 10**31), rng.randint(1, 10**6)),
            ))

        singular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = [Fraction(-7, 3) * x for x in m[0]]
            det = cofactor_det(m)
            singular += det == 0
            # each row is cleared on its own, so all-int rows (L = 1),
            # all-Fraction and mixed rows occur
            ints, scale = clear(m)
            got = matrix_determinant(sparse(ints))
            assert got == det * scale and type(got) is Fraction, m
        assert singular

    def test_determinant_of_int_rows_matches_fraction_rows(self):
        rng = random.Random(17)

        def entry():
            return rng.choice((0, 0, 1, -1, rng.randint(-99, 99), rng.randint(-(10**30), 10**30)))

        singular = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = [3 * x for x in m[0]]
            det = cofactor_det(m)
            singular += det == 0
            got = matrix_determinant(sparse(m))
            # the same rows over denominators, cleared again by the caller
            ks = [rng.randint(1, 12) for _ in m]
            ints, scale = clear([[Fraction(x, k) for x in row] for row, k in zip(m, ks)])
            assert matrix_determinant(sparse(ints)) == Fraction(det * scale, prod(ks)), m
            assert got == det and type(got) is Fraction, m
        assert singular

    def test_int_rows_are_copied_and_add_no_scale(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 2}]
        pivots, rest, scale = _forward_eliminate(rows, 2)
        assert (pivots, rest, scale) == ({0: {0: 1, 1: 1}, 1: {1: 1}}, [], (1, 1))
        assert rows == [{0: 1, 1: 1}, {0: 1, 1: 2}]
        # the rows (3, 1/2) and (0, 2) cleared by the caller are taken as
        # they are: the eliminator adds no factor for them
        rows = sparse(((3, Fraction(1, 2)), (0, 2)))
        pivots, rest, scale = _forward_eliminate(rows, 2)
        assert (pivots, rest, scale) == ({0: {0: 6, 1: 1}, 1: {1: 2}}, [], (1, 1))
        assert all(type(x) is int for row in pivots.values() for x in row.values())

    def test_k_right_hand_sides_match_single_solves(self):
        def outcome(sol):
            return str(sol) if isinstance(sol, ReconstructionError) else sol

        rng = random.Random(13)
        seen = set()
        for _ in range(200):
            n, k = rng.randint(1, 5), rng.randint(1, 4)
            a = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n + rng.randint(0, 2))
            ]
            xs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(k)]
            bs = [[sum(ai * xi for ai, xi in zip(row, x)) for row in a] for x in xs]
            if rng.random() < 0.3:  # knock one right-hand side out of the column space
                bs[rng.randrange(k)][rng.randrange(len(a))] += 1
            rows = [row + [b[i] for b in bs] for i, row in enumerate(a)]
            single = [outcome(sol) for b in bs for sol in _solve_unique(sparse(a, b), n, 1)]
            assert [outcome(sol) for sol in _solve_unique(sparse(rows), n, k)] == single, a
            for b, sol in zip(bs, single):
                reference = gauss_jordan(a, b, n)
                if isinstance(reference, str):
                    assert reference in sol, a
                else:
                    assert as_fractions(sol) == reference, a
            seen.update(type(sol) for sol in single)
        assert seen == {tuple, str}


class TestReconstruct:
    @pytest.mark.parametrize("triple", [(6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24)])
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_matches_closed_form(self, triple, which):
        g, r, d = triple
        assert reconstruct(g, r, d, which) == push(which, GrdParams(g, r, d))

    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_benchmark_large_triple(self, which):
        assert reconstruct(120, 23, 138, which) == push(which, GrdParams(120, 23, 138))

    def test_more_triples(self):
        for g, r, d in ((5, 4, 8), (6, 5, 10), (12, 2, 10)):
            for which in "abc":
                assert reconstruct(g, r, d, which) == push(which, GrdParams(g, r, d))

    def test_every_eligible_triple_up_to_genus_12(self):
        # the system stays uniquely solvable and correct across the board
        for g, r, d in rho_zero_triples(12):
            if g < 5:
                continue
            for which in "abc":
                assert reconstruct(g, r, d, which) == push(which, GrdParams(g, r, d))

    @pytest.mark.parametrize("triple", [(200, 199, 398), (400, 199, 597), (240, 1, 121)])
    def test_large_r_small_m(self, triple):
        params = GrdParams(*triple)
        got = [reconstruct(*triple, which) for which in "abc"]
        assert got == [push(which, params) for which in "abc"]

    def test_computes_N_once(self, monkeypatch):
        calls = []

        def counted(g, r, d):
            calls.append((g, r, d))
            return castelnuovo_N(g, r, d)

        monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
        reconstruct(21, 6, 24, "c")
        assert calls == [(21, 6, 24)]

    def test_needs_genus_at_least_5(self):
        with pytest.raises(ParameterError):
            reconstruct(4, 1, 3, "b")

    def test_rejects_unknown_class(self):
        with pytest.raises(ParameterError, match="unknown tautological class 'x'"):
            reconstruct(6, 2, 6, "x")

    def test_wrong_pencil_degree_is_inconsistent(self, monkeypatch):
        real = families.pencil_degree

        def off_by_one(params, h):
            return tuple(x + (h == 1) for x in real(params, h))

        monkeypatch.setattr(families, "pencil_degree", off_by_one)
        with pytest.raises(ReconstructionError, match="inconsistent"):
            reconstruct(10, 4, 12, "b")


class TestSuites:
    def test_all_suites_pass(self):
        reports = suite_reports("all", max_g=8, r_max=2, d_max=8)
        assert reports and all(r.passed for r in reports)

    def test_all_runs_every_suite_in_table_order(self):
        caps = {"max_g": 8, "r_max": 2, "d_max": 8, "triples": [(6, 2, 6)]}
        each = [str(r) for name in families.SUITES for r in suite_reports(name, **caps)]
        assert [str(r) for r in suite_reports("all", **caps)] == each

    @pytest.mark.parametrize("name", [*families.SUITES, "all"])
    def test_every_suite_refuses_a_bad_triple(self, name):
        with pytest.raises(ParameterError, match=r"^rho\(5,1,3\) = -1 != 0$"):
            suite_reports(name, triples=[(5, 1, 3)])

    @pytest.mark.parametrize("name", families.SUITES)
    def test_a_suite_only_iterates(self, monkeypatch, name):
        # suite_reports checks every cap, so calling a suite has nothing to do
        calls = []
        for fn in ("_report", "_zeta_layers", "_reconstruct"):
            real = getattr(families, fn)
            monkeypatch.setattr(families, fn, lambda *a, fn=fn, real=real, **k: calls.append(fn) or real(*a, **k))
        caps = {"max_g": 8, "r_max": 2, "d_max": 8, "triples": [GrdParams(6, 2, 6)]}
        run = families._SUITES[name](**caps)
        assert calls == []
        reports = list(run)
        assert reports and calls

    def test_reconstruct_suite_pushes_once(self, monkeypatch):
        calls = []

        def counted(which, params):
            calls.append((params.g, which))
            return _per_N_push(which, params)

        monkeypatch.setattr(families, "_per_N_push", counted)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12), (21, 6, 24)])
        assert calls == [(g, which) for g in (10, 21) for which in "abc"]
        assert len(reports) == 13 and all(r.passed for r in reports)

    def test_reconstruct_suite_builds_one_bridge_triple_per_triple(self, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params.g)
            return bridge_pushforward(params)

        monkeypatch.setattr(families, "bridge_pushforward", counted)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12), (21, 6, 24)])
        assert calls == [10, 21]
        assert len(reports) == 13 and all(r.passed for r in reports)

    @pytest.mark.parametrize("which", ["a", "b", "c"])
    @pytest.mark.parametrize(
        "index, name", [(0, "λ"), (1, "ψ"), (2, "δ0"), (3, "δ1"), (22, "δ20")]
    )
    def test_perturbed_coordinate_fails_its_own_class_by_name(self, monkeypatch, which, index, name):
        # psi is the last unknown of the system but the second coordinate of
        # a class, so a slip in mapping the solution back would show here
        closed_form = families._per_N_push

        def off_by_one(w, params):
            L, ints = closed_form(w, params)
            if w == which:
                ints[index] += L  # 1/N times the class, plus one at that coordinate
            return L, ints

        monkeypatch.setattr(families, "_per_N_push", off_by_one)
        reports = suite_reports("reconstruct", triples=[(21, 6, 24)])
        failed = [(r.check, r.params.get("class")) for r in reports if not r.passed]
        # the bridge reads lambda, delta_0, delta_{g-2} and delta_{g-1}, not psi or delta_1
        bridge_reads = index in (0, 2, 22)
        assert failed == [("reconstruct", which)] + [("bridge_quotient", which)] * bridge_reads
        [rep] = [r for r in reports if r.check == "reconstruct" and not r.passed]
        assert rep.detail.startswith(f"first mismatch at {name}: ")

    def test_reconstruct_suite_solves_once_per_triple(self, monkeypatch):
        calls = []

        def counted(rows, ncols, k):
            calls.append((ncols, k))
            assert all(type(x) is int for row in rows for x in row.values())  # the eliminator takes int rows only
            return _solve_unique(rows, ncols, k)

        monkeypatch.setattr(families, "_solve_unique", counted)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12), (21, 6, 24)])
        assert calls == [(13, 3), (24, 3)]
        assert len(reports) == 13 and all(r.passed for r in reports)

    def test_reconstruct_suite_with_no_triples_runs_only_epsilon(self):
        reports = suite_reports("reconstruct", triples=[])
        assert [r.check for r in reports] == ["epsilon_nonsingular"]
        assert reports[0].passed

    def test_reconstruct_suite_computes_N_once_per_triple(self, monkeypatch):
        calls = []

        def counted(g, r, d):
            calls.append((g, r, d))
            return castelnuovo_N(g, r, d)

        monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
        reports = suite_reports("reconstruct", triples=[(21, 6, 24)])
        assert calls == [(21, 6, 24)]
        assert len(reports) == 7 and all(r.passed for r in reports)

    def test_weierstrass_suite_computes_N_once_per_triple(self, monkeypatch):
        calls = []

        def counted(g, r, d):
            calls.append((g, r, d))
            return castelnuovo_N(g, r, d)

        monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
        reports = suite_reports("weierstrass", max_g=12)
        assert calls == rho_zero_triples(12)
        assert len(calls) == 23 and len(reports) == 62

    def test_weierstrass_suite_reports_every_triple(self):
        reports = suite_reports("weierstrass", max_g=12)
        assert len(reports) == 62 and all(r.passed for r in reports)

    def test_bridge_quotient_skips_dense_tables(self, monkeypatch):
        def dense(dc):
            raise AssertionError("pullbacks builds the tails and pencil tables")

        monkeypatch.setattr(families, "pullbacks", dense)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12)])
        bridge = [r for r in reports if r.check == "bridge_quotient"]
        assert len(bridge) == 3 and all(r.passed for r in bridge)

    def test_symmetry_suite_builds_each_instance_once(self, monkeypatch):
        calls = []

        def counted(fp):
            calls.append(fp)
            return slope_report(fp)

        monkeypatch.setattr(families, "slope_report", counted)
        reports = suite_reports("symmetry")
        assert len(calls) == len(set(calls)) == 33
        checks = [r.check for r in reports]
        assert checks == ["gp_slope"] * 16 + ["syzygy_slope"] * 9 + ["structure"] * 33
        assert all(r.passed for r in reports)

    @staticmethod
    def failed_structure_keys():
        return [
            (r.params["family"], r.params["first"], r.params["s"])
            for r in suite_reports("symmetry")
            if not r.passed
        ]

    def test_structure_fails_where_hypersurface_k2_is_not_syzygy_0(self, monkeypatch):
        monkeypatch.setattr(families, "syzygy_combo", lambda i, s: TautCombo.of(0, 0, 0, 1))
        failed = self.failed_structure_keys()
        assert failed == [("hypersurface", 2 * s + 2, s) for s in range(1, 5)]

    def test_structure_fails_where_a_quadric_type_class_is_not_symmetric(self, monkeypatch):
        real = families.per_N_numerators

        def off_at_delta1(combo, params):
            L, ints = real(combo, params)
            lam, psi, delta0, delta1, *rest = ints
            return L, iter([lam, psi, delta0, delta1 + 1, *rest])

        monkeypatch.setattr(families, "per_N_numerators", off_at_delta1)
        failed = self.failed_structure_keys()
        syzygy = [("syzygy", 0, s) for s in (1, 2, 3)]
        assert failed == syzygy + [("hypersurface", 2 * s + 2, s) for s in range(1, 5)]

    @settings(deadline=None, max_examples=150)
    @given(
        st.sampled_from([t for t in rho_zero_triples(40) if t[0] >= 3]),
        st.lists(st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6)), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_structure_reads_symmetry_from_delta_1_and_delta_g_minus_1(self, triple, coeffs, balance):
        # the per-N check delta_1 == delta_{g-1} against every delta_i of
        # the full pushforward; balancing p_c against p_a and p_b makes
        # delta_1 = delta_{g-1}, so both verdicts are drawn
        grd = GrdParams(*triple)
        skew = [dc.delta[1] - dc.delta[-1] for dc in (push(which, grd) for which in "abc")]
        if balance and skew[2]:
            coeffs[2] = -(coeffs[0] * skew[0] + coeffs[1] * skew[1]) / skew[2]
        combo = TautCombo.of(*coeffs)
        want = push_combo(combo, grd).is_delta_symmetric()
        assert want or not (balance and skew[2])
        rep = _structure_report(SlopeReport("gp", 1, None, 0, 0, False, combo, grd), 1, True, False)
        assert rep.lhs.endswith(f", symmetric={want}"), (rep.lhs, want)

    def test_schubert_oracle_default_caps_count(self):
        reports = suite_reports("schubert-oracle")
        assert len(reports) == 80  # G(r, P^d) for 1 <= r <= 5, r <= d <= 18
        assert all(r.passed for r in reports)
        assert sum(int(r.lhs) for r in reports) == 34018

    def test_schubert_oracle_beyond_default_caps_checks_every_pair(self):
        reports = suite_reports("schubert-oracle", r_max=6, d_max=20)
        assert len(reports) == 105  # G(r, P^d) for 1 <= r <= 6, r <= d <= 20
        for rep in reports:
            spec = GrassmannianSpec(rep.params["r"], rep.params["d"])
            pairs = len(list(balanced_pairs(spec)))
            assert rep.passed and rep.lhs == rep.rhs == str(pairs), rep

    def test_schubert_oracle_suite_equals_standalone_reports(self):
        # each spec alone, on the layers of its own Grassmannian
        alone = {
            (r, d): _spec_report(r, d, _table(r, d))
            for r in range(1, 5)
            for d in range(r, 13)
        }
        for r_max in range(5):
            for d_max in range(13):
                want = [alone[r, d] for r in range(1, r_max + 1) for d in range(r, d_max + 1)]
                got = suite_reports("schubert-oracle", r_max=r_max, d_max=d_max)
                assert got == want, (r_max, d_max)

    def test_schubert_oracle_runs_one_layer_pass_per_r(self, monkeypatch):
        runs, closed = [], []
        real_layers, real_closed = families._zeta_layers, families._closed_form

        def counted_layers(spec):
            runs.append(spec)
            return real_layers(spec)

        def counted_closed(spec, b, k):
            closed.append(spec)
            return real_closed(spec, b, k)

        monkeypatch.setattr(families, "_zeta_layers", counted_layers)
        monkeypatch.setattr(families, "_closed_form", counted_closed)
        assert all(rep.passed for rep in suite_reports("schubert-oracle"))
        assert runs == [GrassmannianSpec(r, 18) for r in range(1, 6)]
        assert len(closed) == 34018

    def test_identity_suites_build_one_table_per_brute_check(self, monkeypatch):
        # every rho = 0 triple with g <= 12 lies below the brute-force
        # gate: each castelnuovo check builds the table of its own
        # G(r, P^d); the weierstrass suite builds one per triple with
        # g >= 3, read by both identities, and the aspect counts build none
        triples = rho_zero_triples(12)
        weierstrass = [GrassmannianSpec(r, d) for g, r, d in triples if g >= 3]
        assert len(weierstrass) == 22 and GrassmannianSpec(2, 4) in weierstrass
        want = {
            "castelnuovo": [GrassmannianSpec(r, d) for _, r, d in triples],
            "weierstrass": weierstrass,
        }
        unpatched = {name: suite_reports(name, max_g=12) for name in want}
        real, runs = families._zeta_layers, []

        def counted(spec):
            runs.append(spec)
            return real(spec)

        monkeypatch.setattr(families, "_zeta_layers", counted)
        for name, specs in want.items():
            runs.clear()
            assert suite_reports(name, max_g=12) == unpatched[name]
            assert runs == specs, name

    @pytest.mark.parametrize("key", [(0, 0, 0), (1, 1, 2), (2, 3, 5), (3, 3, 6)])
    def test_a_wrong_shared_entry_fails_every_spec_that_reads_it(self, monkeypatch, key):
        # the layer entry at key of G(2, P^8) is read by G(2, P^d) at the
        # dual of key in the box d - 2, for every d with key[-1] <= d - 2,
        # and by no G(1, P^d)
        real = families._zeta_layers
        big = GrassmannianSpec(2, 8)
        k = sum(key) // 2
        value = real(big)[k][key]

        def off_by_one(spec):
            layers = real(spec)
            if spec == big:
                layers[k][key] += 1
            return layers

        monkeypatch.setattr(families, "_zeta_layers", off_by_one)
        reports = suite_reports("schubert-oracle", r_max=2, d_max=8)
        failed = {(rep.params["r"], rep.params["d"]): (rep.lhs, rep.rhs) for rep in reports if not rep.passed}
        want = {}
        for d in range(key[-1] + 2, 9):
            b = tuple(d - 2 - x for x in reversed(key))
            want[2, d] = (f"closed({b},k={k})={value}", f"brute={value + 1}")
        assert failed == want

    @pytest.mark.parametrize("key, k", [((0, 0, 2), 1), ((0, 0, 4), 2), ((1, 1, 4), 3)])
    def test_an_entry_planted_where_the_closed_form_vanishes_fails_every_spec_that_reads_it(
        self, monkeypatch, key, k
    ):
        # key has the codimension 2k of layer k but is no entry of it, so
        # the closed form vanishes at its dual; G(2, P^d) reads it for
        # every d with key[-1] <= d - 2
        real = families._zeta_layers
        big = GrassmannianSpec(2, 8)

        def planted(spec):
            layers = real(spec)
            if spec == big:
                layers[k][key] = 7
            return layers

        assert key not in real(big)[k]
        monkeypatch.setattr(families, "_zeta_layers", planted)
        reports = suite_reports("schubert-oracle", r_max=2, d_max=8)
        failed = {(rep.params["r"], rep.params["d"]): (rep.lhs, rep.rhs) for rep in reports if not rep.passed}
        want = {}
        for d in range(key[-1] + 2, 9):
            b = tuple(d - 2 - x for x in reversed(key))
            want[2, d] = (f"closed({b},k={k})=0", "brute=7")
        assert failed == want

    def test_a_closed_form_zeroed_at_a_nonzero_pair_fails_its_spec(self, monkeypatch):
        # (2, 2, 4) with k = 2 on G(2, P^6) reads 1 at its dual (0, 2, 2)
        real = families._closed_form
        spec26 = GrassmannianSpec(2, 6)

        def zeroed(spec, b, k):
            return (0, 1) if (spec, b) == (spec26, (2, 2, 4)) else real(spec, b, k)

        monkeypatch.setattr(families, "_closed_form", zeroed)
        reports = suite_reports("schubert-oracle", r_max=2, d_max=8)
        failed = {(rep.params["r"], rep.params["d"]): (rep.lhs, rep.rhs) for rep in reports if not rep.passed}
        assert failed == {(2, 6): ("closed((2, 2, 4),k=2)=0", "brute=1")}

    @pytest.mark.parametrize("key, k", [((0, 0, 2), 2), ((0, 1, 1), 0), ((1, 2, 3), 4)])
    def test_an_entry_off_its_codimension_is_never_read(self, monkeypatch, key, k):
        # no balanced pair's dual index lies in layer k unless its sum is
        # 2k: every report passes, and the table is read as often as
        # without the planted entry
        real_layers, real_count, reads = families._zeta_layers, families._table_count, []
        big = GrassmannianSpec(2, 8)

        def planted(spec):
            layers = real_layers(spec)
            if spec == big:
                layers[k][key] = 7
            return layers

        def counted(layers, box, b, k):
            reads.append(1)
            return real_count(layers, box, b, k)

        assert sum(key) != 2 * k
        monkeypatch.setattr(families, "_table_count", counted)
        unplanted = suite_reports("schubert-oracle", r_max=2, d_max=8)
        n_unplanted, reads[:] = len(reads), []
        monkeypatch.setattr(families, "_zeta_layers", planted)
        assert suite_reports("schubert-oracle", r_max=2, d_max=8) == unplanted
        assert all(rep.passed for rep in unplanted) and len(reads) == n_unplanted

    def test_schubert_oracle_reads_the_table_only_where_the_closed_form_is_nonzero(self, monkeypatch):
        real, reads = families._table_count, []

        def counted(layers, box, b, k):
            reads.append(1)
            return real(layers, box, b, k)

        monkeypatch.setattr(families, "_table_count", counted)
        assert all(rep.passed for rep in suite_reports("schubert-oracle"))
        assert len(reads) == 6825  # of 34018 balanced pairs

    def test_reach_counts_are_the_nonzero_closed_forms(self):
        # on a true table R = P: for every box, the entries a balanced
        # pair can reach are the pairs whose closed form is nonzero
        for r in range(1, 5):
            layers = _table(r, 12)
            reach = _reach_counts(layers, r, 12 - r)
            for d in range(r, 13):
                spec = GrassmannianSpec(r, d)
                nonzero = sum(bool(families._closed_form(spec, b, k)[0]) for b, k in _balanced_tuples(spec))
                assert reach[d - r] == nonzero, (r, d)

    def test_oracle_fails_on_a_non_integral_closed_form(self, monkeypatch):
        real = families._closed_form

        def half(spec, b, k):
            return (5, 2) if b == (0, 0, 0) else real(spec, b, k)

        monkeypatch.setattr(families, "_closed_form", half)
        rep = _spec_report(2, 6, _table(2, 6))
        assert not rep.passed
        assert (rep.lhs, rep.rhs) == ("closed((0, 0, 0),k=6)=5/2", "brute=5")

    def test_oracle_fails_on_a_closed_form_with_the_right_floor(self, monkeypatch):
        # 11/2 = 2*5 + 1 over 2: the floor is the layer entry 5, and only
        # the remainder tells the two apart
        real = families._closed_form

        def floor_right(spec, b, k):
            return (2 * 5 + 1, 2) if b == (0, 0, 0) else real(spec, b, k)

        monkeypatch.setattr(families, "_closed_form", floor_right)
        rep = _spec_report(2, 6, _table(2, 6))
        assert not rep.passed
        assert (rep.lhs, rep.rhs) == ("closed((0, 0, 0),k=6)=11/2", "brute=5")

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            suite_reports("nonsense")

    def test_report_json_shape(self):
        rep = identity_castelnuovo(4, 1, 3)
        obj = rep.as_json_dict()
        assert set(obj) == {"check", "params", "lhs", "rhs", "pass", "detail"}
        assert obj["pass"] is True


_P626 = GrdParams(6, 2, 6)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: tails_matrix(4), "tails family needs g >= 5"),
        (lambda: pencil_degree(_P626, 0), "needs 1 <= h <= g-1; got h=0"),
        (lambda: pencil_degree(_P626, 6), "needs 1 <= h <= g-1; got h=6"),
        (lambda: _per_N_push("x", _P626), "unknown tautological class 'x'"),
        (lambda: identity_weierstrass_a(2, 1, 2), "Weierstrass identity for a needs g >= 3"),
        (lambda: identity_weierstrass_a(3, 0, 0), r"need g >= 1 and r >= 1; got \(g,r,d\)=\(3,0,0\)"),
        (lambda: identity_castelnuovo(1, 0, 0), r"need g >= 1 and r >= 1; got \(g,r,d\)=\(1,0,0\)"),
        (lambda: identity_pieri(4, 1, 3), "Pieri identity check needs r >= 2"),
        (lambda: identity_pieri(99, 2, 4), r"rho\(99,2,4\) = -192 != 0"),
        (lambda: reconstruct(5, 0, 0, "a"), r"need g >= 1 and r >= 1; got \(g,r,d\)=\(5,0,0\)"),
    ],
)
def test_named_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()
