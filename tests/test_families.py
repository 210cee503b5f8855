import random
from fractions import Fraction

import pytest

from bnslopes import families, tautpush
from bnslopes.families import (
    M21Class,
    ReconstructionError,
    _forward_eliminate,
    _solve_unique,
    aspect_counts,
    aspect_report,
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
    suite_reports,
    tails_matrix,
)
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    castelnuovo_N,
    push,
    push_b,
    rho_zero_triples,
)


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
        bridge, tails, degrees = pullbacks(g, unit_class(g, "lam"))
        assert bridge == M21Class(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert not any(tails)
        assert all(x == 0 for x in degrees)

    def test_delta_g_minus_2_hits_psi(self):
        g = 8
        bridge, _, _ = pullbacks(g, unit_class(g, "delta", g - 2))
        assert bridge.psi == -1
        assert bridge.lam == bridge.delta0 == bridge.delta1 == 0

    def test_psi_degrees(self):
        g = 8
        bridge, tails, degrees = pullbacks(g, unit_class(g, "psi"))
        assert bridge == M21Class(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert not any(tails)
        assert degrees == tuple(Fraction(2 * h - 1) for h in range(1, g))

    def test_middle_delta_cancels_on_pencils(self):
        g = 8
        _, _, degrees = pullbacks(g, unit_class(g, "delta", g // 2))
        assert degrees[g // 2 - 1] == 0


class TestEpsilonMatrix:
    def test_g5(self):
        m, nonsingular = epsilon_matrix(5)
        assert m == ((4, 0), (-1, 2))
        assert matrix_determinant(m) == 8
        assert nonsingular

    def test_g6(self):
        m, nonsingular = epsilon_matrix(6)
        assert m == ((5, 0, 0), (-1, 1, 3), (0, -1, 2))
        assert matrix_determinant(m) == 25
        assert nonsingular

    def test_range_nonsingular(self):
        for g in range(5, 31):
            assert epsilon_matrix(g)[1], g

    def test_small_g_rejected(self):
        with pytest.raises(ParameterError):
            epsilon_matrix(4)


class TestBridgeQuotient:
    def test_push_b_differs_by_stated_multiple(self):
        g, r, d = 10, 4, 12
        params = GrdParams(g, r, d)
        got, _, _ = pullbacks(g, push_b(params))
        want = bridge_pushforward("b", params)
        mu = got.relation_multiple(want)
        assert mu == Fraction(d * params.N, 2 * (g - 1))  # = 28

    def test_raw_comparison_fails_without_quotient(self):
        g, r, d = 10, 4, 12
        params = GrdParams(g, r, d)
        got, _, _ = pullbacks(g, push_b(params))
        assert got != bridge_pushforward("b", params)
        assert got.eq_mod_relation(bridge_pushforward("b", params))

    def test_all_classes_all_triples(self):
        for g, r, d in ((6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which in "abc":
                got, _, _ = pullbacks(g, push(which, params))
                assert got.eq_mod_relation(bridge_pushforward(which, params)), (g, which)


class TestLemmaConsistency:
    # the pencil degrees and tails vanishing must hold for the closed-form
    # pushforwards themselves
    def test_pencil_degrees_match(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12)):
            params = GrdParams(g, r, d)
            for which in "abc":
                _, _, degrees = pullbacks(g, push(which, params))
                expected = tuple(pencil_degree(which, params, h) for h in range(1, g))
                assert degrees == expected, (g, which)

    def test_tails_pullback_vanishes(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which in "abc":
                _, tails, _ = pullbacks(g, push(which, params))
                assert not any(tails), (g, which)

    def test_lemma_data_shape(self):
        # g-3 tails rows and g-1 pencil rows over the g+2 columns
        # (lambda, psi, delta_0..delta_{g-1})
        g = 8
        assert [len(row) for row in tails_matrix(g)] == [g + 2] * 5
        assert [len(row) for row in pencil_matrix(g)] == [g + 2] * 7


class TestIdentities:
    def test_castelnuovo(self):
        for g, r, d in ((4, 1, 3), (6, 2, 6), (10, 4, 12)):
            rep = identity_castelnuovo(g, r, d)
            assert rep.passed, rep
            assert "brute" in rep.detail

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


class TestAspects:
    def test_genus10(self):
        assert aspect_counts(10, 4, 12) == (14, 28)

    def test_genus4(self):
        assert aspect_counts(4, 1, 3) == (1, 1)

    def test_genus21_sums_to_N(self):
        params = GrdParams(21, 6, 24)
        n1, n2 = aspect_counts(21, 6, 24)
        assert n1 == Fraction(16 * params.N, 40)
        assert n2 == Fraction(24 * params.N, 40)
        assert n1 + n2 == params.N

    def test_reports_with_schubert_cross_check(self):
        for g, r, d in rho_zero_triples(10):
            rep = aspect_report(g, r, d)
            assert rep.passed, rep


class TestSolver:
    def test_unique_solution(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], [Fraction(2), Fraction(0)]]
        rhs = [Fraction(3), Fraction(1), Fraction(4)]
        assert _solve_unique(rows, rhs) == [Fraction(2), Fraction(1)]

    def test_inconsistent(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
        with pytest.raises(ReconstructionError, match="inconsistent"):
            _solve_unique(rows, [Fraction(1), Fraction(2)])

    def test_underdetermined(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        with pytest.raises(ReconstructionError, match="underdetermined"):
            _solve_unique(rows, [Fraction(1), Fraction(2)])

    def test_elimination_skips_zero_column_and_tracks_swaps(self):
        rows = [[Fraction(x) for x in row] for row in ((0, 0, 3), (0, 2, 5), (0, 4, 1))]
        assert _forward_eliminate(rows, 3) == ([1, 2], 0)
        rows = [[Fraction(x) for x in row] for row in ((0, 2), (3, 1))]
        assert _forward_eliminate(rows, 2) == ([0, 1], -6)
        assert rows == [[3, 1], [0, 2]]

    def test_against_cofactor_expansion_and_substitution(self):
        def cofactor_det(m):
            if not m:
                return 1
            return sum(
                (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
                for j in range(len(m))
                if m[0][j]
            )

        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
            det = cofactor_det(m)
            assert matrix_determinant(m) == det, m
            if det:
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                # one redundant row keeps the system over-determined but consistent
                rows = [[Fraction(a) for a in row] for row in m + [[sum(c) for c in zip(*m)]]]
                rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
                assert _solve_unique(rows, rhs) == x, m


class TestReconstruct:
    @pytest.mark.parametrize("triple", [(6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24)])
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_matches_closed_form(self, triple, which):
        g, r, d = triple
        assert reconstruct(g, r, d, which) == push(which, GrdParams(g, r, d))

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
        with pytest.raises(ParameterError):
            reconstruct(6, 2, 6, "x")


class TestSuites:
    def test_all_suites_pass(self):
        reports = suite_reports("all", max_g=8, r_max=2, d_max=8)
        assert reports and all(r.passed for r in reports)

    def test_reconstruct_suite_pushes_once(self, monkeypatch):
        calls = []

        def counted(which, params):
            calls.append((params.g, which))
            return push(which, params)

        monkeypatch.setattr(families, "push", counted)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12), (21, 6, 24)])
        assert calls == [(g, which) for g in (10, 21) for which in "abc"]
        assert len(reports) == 13 and all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            suite_reports("nonsense")

    def test_report_json_shape(self):
        rep = identity_castelnuovo(4, 1, 3)
        obj = rep.as_json_dict()
        assert set(obj) == {"check", "params", "lhs", "rhs", "pass", "detail"}
        assert obj["pass"] is True
