import random
from fractions import Fraction
from itertools import combinations

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
from bnslopes.schubert import GrassmannianSpec, balanced_pairs
from bnslopes.tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    castelnuovo_N,
    push,
    push_b,
    push_combo,
    rho_zero_triples,
)


def sparse(rows, rhs=None, entry=Fraction):
    """Dense rows, and a right-hand side under the key len(row), as the
    eliminator's sparse rows of their nonzero entries, each passed
    through ``entry`` (made a Fraction by default)."""
    if rhs is not None:
        rows = [list(row) + [b] for row, b in zip(rows, rhs)]
    return [{j: entry(x) for j, x in enumerate(row) if x} for row in rows]


def solve_one(rows, ncols):
    """The solver on a single right-hand side, raising its error the way
    reconstruct does."""
    [sol] = _solve_unique(rows, ncols, 1)
    if isinstance(sol, ReconstructionError):
        raise sol
    return sol


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
        assert bridge.coefficients() == (1, 0, 0, 0)
        assert not any(tails)
        assert all(x == 0 for x in degrees)

    def test_delta_g_minus_2_hits_psi(self):
        g = 8
        bridge, _, _ = pullbacks(g, unit_class(g, "delta", g - 2))
        assert bridge.psi == -1
        assert bridge.lam == bridge.delta[0] == bridge.delta[1] == 0

    def test_psi_degrees(self):
        g = 8
        bridge, tails, degrees = pullbacks(g, unit_class(g, "psi"))
        assert bridge.coefficients() == (0, 0, 0, 0)
        assert not any(tails)
        assert degrees == tuple(Fraction(2 * h - 1) for h in range(1, g))

    def test_middle_delta_cancels_on_pencils(self):
        g = 8
        _, _, degrees = pullbacks(g, unit_class(g, "delta", g // 2))
        assert degrees[g // 2 - 1] == 0

    def test_integral_entries_are_ints(self):
        for g in (5, 8, 21, 60):
            rows = pencil_matrix(g) + bridge_matrix(g)
            assert all(type(x) is int for row in rows for x in row.values()), g
            assert all(type(row[2 + i]) is int for i, row in enumerate(tails_matrix(g), start=2)), g

    def test_pencil_degrees_are_ints(self):
        # r(r+1)/2 is integral for odd and even r alike
        for g, r, d in ((5, 4, 8), (6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24), (120, 23, 138)):
            params = GrdParams(g, r, d)
            for h in range(1, g):
                degrees = [pencil_degree(which, params, h) for which in "abc"]
                assert all(type(x) is int for x in degrees), (g, h)
                assert degrees == [-d * d, -(2 * (g - h) - 1) * d, -(r * h + Fraction(r * (r + 1), 2))], (g, h)


class TestEpsilonMatrix:
    def test_g5(self):
        m, nonsingular = epsilon_matrix(5)
        assert m == sparse(((4, 0), (-1, 2)), entry=int)
        assert matrix_determinant(m) == 8
        assert nonsingular

    def test_g6(self):
        m, nonsingular = epsilon_matrix(6)
        assert m == sparse(((5, 0, 0), (-1, 1, 3), (0, -1, 2)), entry=int)
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
        got, _, _ = pullbacks(g, _per_N_push("b", params))
        want = bridge_pushforward("b", params)
        mu = relation_multiple(got, want)
        assert mu == Fraction(d, 2 * (g - 1))  # = 28/N with N = 42
        assert mu * params.N == 28

    def test_raw_comparison_fails_without_quotient(self):
        g, r, d = 10, 4, 12
        params = GrdParams(g, r, d)
        got, _, _ = pullbacks(g, _per_N_push("b", params))
        assert got != bridge_pushforward("b", params)
        assert relation_multiple(got, bridge_pushforward("b", params)) is not None

    def test_all_classes_all_triples(self):
        for g, r, d in ((6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which in "abc":
                got, _, _ = pullbacks(g, _per_N_push(which, params))
                want = bridge_pushforward(which, params)
                assert relation_multiple(got, want) is not None, (g, which)
                # N times the known class is the bridge class of the pushforward
                full, _, _ = pullbacks(g, push(which, params))
                scaled = DivisorClass.from_coefficients(params.N * x for x in want.coefficients())
                assert relation_multiple(full, scaled) == params.N * relation_multiple(got, want), (g, which)

    def test_difference_off_the_relation(self):
        want = bridge_pushforward("b", GrdParams(10, 4, 12))
        got = DivisorClass(want.lam + 1, want.psi, want.delta)
        assert relation_multiple(got, want) is None
        assert relation_multiple(want, want) == 0


class TestLemmaConsistency:
    # the pencil degrees and tails vanishing must hold for the closed-form
    # pushforwards themselves
    def test_pencil_degrees_match(self):
        # the known degrees are 1/N times those of the pushforwards
        for g, r, d in ((6, 2, 6), (10, 4, 12)):
            params = GrdParams(g, r, d)
            for which in "abc":
                expected = tuple(pencil_degree(which, params, h) for h in range(1, g))
                _, _, degrees = pullbacks(g, _per_N_push(which, params))
                assert degrees == expected, (g, which)
                _, _, degrees = pullbacks(g, push(which, params))
                assert degrees == tuple(params.N * x for x in expected), (g, which)

    def test_tails_pullback_vanishes(self):
        for g, r, d in ((6, 2, 6), (10, 4, 12), (21, 6, 24)):
            params = GrdParams(g, r, d)
            for which in "abc":
                _, tails, _ = pullbacks(g, push(which, params))
                assert not any(tails), (g, which)

    def test_lemma_data_shape(self):
        # g-3 tails rows and g-1 pencil rows, sparse over the g+2 columns
        # (lambda, psi, delta_0..delta_{g-1}), storing nonzero entries only
        g = 8
        tails, pencils = tails_matrix(g), pencil_matrix(g)
        assert (len(tails), len(pencils)) == (5, 7)
        assert all(0 <= j <= g + 1 and x != 0 for row in tails + pencils for j, x in row.items())
        assert pencils[g // 2 - 1] == {1: g - 1}


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


class TestAspects:
    def test_genus10(self):
        assert _aspect_report(10, 4, 12).lhs == "(14,28)"

    def test_genus4(self):
        assert _aspect_report(4, 1, 3).lhs == "(1,1)"

    def test_genus21_sums_to_N(self):
        N = GrdParams(21, 6, 24).N
        n1, n2 = Fraction(16 * N, 40), Fraction(24 * N, 40)
        rep = _aspect_report(21, 6, 24)
        assert rep.lhs == f"({n1},{n2})"
        assert n1 + n2 == N and rep.rhs == f"sum={N}" and rep.passed

    def test_reports_with_schubert_cross_check(self):
        for g, r, d in rho_zero_triples(10):
            rep = _aspect_report(g, r, d)
            assert rep.passed, rep


class TestSolver:
    def test_unique_solution(self):
        rows = sparse(((1, 1), (1, -1), (2, 0)), (3, 1, 4))
        assert solve_one(rows, 2) == [Fraction(2), Fraction(1)]

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
                assert sol == x and all(type(y) is Fraction for y in sol), m

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
            if outcome != "unique":
                with pytest.raises(ReconstructionError, match=outcome):
                    solve_one(sparse(a, b), n)
                continue
            sol = solve_one(sparse(a, b), n)
            assert all(type(y) is Fraction for y in sol), a
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
            # entries keep their type, so all-int, all-Fraction and mixed rows occur
            got = matrix_determinant(sparse(m, entry=lambda x: x))
            assert got == det and type(got) is Fraction, m
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
            got = matrix_determinant(sparse(m, entry=int))
            assert got == matrix_determinant(sparse(m)) == det and type(got) is Fraction, m
        assert singular

    def test_int_rows_are_copied_and_add_no_scale(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 2}]
        pivots, rest, scale = _forward_eliminate(rows, 2)
        assert (pivots, rest, scale) == ({0: {0: 1, 1: 1}, 1: {1: 1}}, [], (1, 1))
        assert rows == [{0: 1, 1: 1}, {0: 1, 1: 2}]
        # a row holding a Fraction is cleared, and its lcm enters the scale
        rows = [{0: Fraction(3), 1: Fraction(1, 2)}, {1: Fraction(2)}]
        pivots, rest, scale = _forward_eliminate(rows, 2)
        assert (pivots, rest, scale) == ({0: {0: 6, 1: 1}, 1: {1: 2}}, [], (2, 1))
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
            seen.update(type(sol) for sol in single)
        assert seen == {list, str}


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

        def off_by_one(which, params, h):
            return real(which, params, h) + (h == 1)

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

    def test_reconstruct_suite_pushes_once(self, monkeypatch):
        calls = []

        def counted(which, params):
            calls.append((params.g, which))
            return _per_N_push(which, params)

        monkeypatch.setattr(families, "_per_N_push", counted)
        reports = suite_reports("reconstruct", triples=[(10, 4, 12), (21, 6, 24)])
        assert calls == [(g, which) for g in (10, 21) for which in "abc"]
        assert len(reports) == 13 and all(r.passed for r in reports)

    def test_reconstruct_suite_solves_once_per_triple(self, monkeypatch):
        calls = []

        def counted(rows, ncols, k):
            calls.append((ncols, k))
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

    def test_weierstrass_suite_reports_every_triple(self):
        reports = suite_reports("weierstrass", max_g=12)
        assert len(reports) == 62 and all(r.passed for r in reports)

    def test_bridge_quotient_skips_dense_tables(self, monkeypatch):
        def dense(g, dc):
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
            (r, d): _oracle_spec_report(r, d, _table(r, d))
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
        # gate: each castelnuovo check and each weierstrass identity whose
        # pattern fits the box builds the table of its own G(r, P^d), and
        # the aspect counts build none
        triples = rho_zero_triples(12)
        weierstrass = []
        for g, r, d in triples:
            patterns = [(1, 2) + (3,) * (r - 1)] if g >= 3 else []
            if g >= 3 and r >= 2:
                patterns.append((0, 1) + (2,) * (r - 2) + (3,))
            weierstrass += [GrassmannianSpec(r, d) for b in patterns if b[-1] <= d - r]
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

    def test_oracle_fails_on_a_non_integral_closed_form(self, monkeypatch):
        real = families._closed_form

        def half(spec, b, k):
            return (5, 2) if b == (0, 0, 0) else real(spec, b, k)

        monkeypatch.setattr(families, "_closed_form", half)
        rep = _oracle_spec_report(2, 6, _table(2, 6))
        assert not rep.passed
        assert (rep.lhs, rep.rhs) == ("closed((0, 0, 0),k=6)=5/2", "brute=5")

    def test_oracle_fails_on_a_closed_form_with_the_right_floor(self, monkeypatch):
        # 11/2 = 2*5 + 1 over 2: the floor is the layer entry 5, and only
        # the remainder tells the two apart
        real = families._closed_form

        def floor_right(spec, b, k):
            return (2 * 5 + 1, 2) if b == (0, 0, 0) else real(spec, b, k)

        monkeypatch.setattr(families, "_closed_form", floor_right)
        rep = _oracle_spec_report(2, 6, _table(2, 6))
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
        (lambda: pullbacks(6, push_b(GrdParams(8, 3, 9))), "class has genus 8, expected 6"),
        (lambda: pencil_degree("a", _P626, 0), "needs 1 <= h <= g-1; got h=0"),
        (lambda: pencil_degree("a", _P626, 6), "needs 1 <= h <= g-1; got h=6"),
        (lambda: pencil_degree("x", _P626, 1), "unknown tautological class 'x'"),
        (lambda: identity_weierstrass_a(2, 1, 2), "Weierstrass identity for a needs g >= 3"),
        (lambda: identity_weierstrass_a(3, 0, 0), "Weierstrass identity for a needs g >= 3 and r >= 1; got g=3, r=0"),
        (lambda: identity_castelnuovo(1, 0, 0), "Castelnuovo identity needs r >= 1; got r=0"),
        (lambda: identity_pieri(4, 1, 3), "Pieri identity check needs r >= 2"),
        (lambda: reconstruct(5, 0, 0, "a"), "reconstruction needs r >= 1; got r=0"),
    ],
)
def test_named_errors(call, fragment):
    with pytest.raises(ParameterError, match=fragment):
        call()
