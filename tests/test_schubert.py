from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnslopes.families import _oracle_spec_report, _reach_counts
from bnslopes.schubert import (
    BalanceError,
    ChowClass,
    CodimensionError,
    GrassmannianSpec,
    InvalidIndexError,
    _balanced_tuples,
    _closed_form,
    _table_count,
    _zeta_layers,
    _zeta_successors,
    balanced_pairs,
    brute_zeta_integral,
    integral,
    make_index,
    pieri_ek,
    schubert_class,
    zeta,
    zeta_power_integral,
)
from bnslopes.tautpush import rho_zero_triples

G13 = GrassmannianSpec(1, 3)
G26 = GrassmannianSpec(2, 6)


class TestSpecAndIndex:
    def test_dimension(self):
        assert G13.dim == 4
        assert G26.dim == 12
        assert GrassmannianSpec(4, 12).dim == 40

    def test_spec_rejects_bad_r(self):
        with pytest.raises(InvalidIndexError):
            GrassmannianSpec(4, 3)

    def test_make_index_zeta_small(self):
        idx = make_index(G13, (0, 1))
        assert idx.codim == 1

    def test_make_index_zeta_large(self):
        spec = GrassmannianSpec(6, 24)
        idx = make_index(spec, (0, 1, 1, 1, 1, 1, 1))
        assert idx.codim == 6
        assert zeta(spec).terms == {idx.b: 1}

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidIndexError, match="ascending"):
            make_index(G13, (1, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidIndexError, match="length"):
            make_index(G13, (0, 1, 1))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InvalidIndexError, match="d-r"):
            make_index(G13, (0, 3))
        with pytest.raises(InvalidIndexError, match=">= 0"):
            make_index(G13, (-1, 0))


class TestPieri:
    def test_zeta_times_box(self):
        # zeta * e_1 = sigma_{(1,...,1)} + sigma_{(0,1,...,1,2)}
        got = pieri_ek(zeta(G26), 1)
        assert got == ChowClass(G26, 3, {(1, 1, 1): 1, (0, 1, 2): 1})

    def test_zeta_times_box_general_r(self):
        for spec in (GrassmannianSpec(4, 12), GrassmannianSpec(6, 24)):
            r = spec.r
            got = pieri_ek(zeta(spec), 1)
            want = {(1,) * (r + 1): 1, (0,) + (1,) * (r - 1) + (2,): 1}
            assert got == ChowClass(spec, r + 1, want)

    def test_full_shift(self):
        spec = GrassmannianSpec(4, 12)
        got = pieri_ek(schubert_class(spec, (0, 1, 2, 2, 2)), 5)
        assert got == schubert_class(spec, (1, 2, 3, 3, 3))

    def test_bound_saturation_gives_zero_class(self):
        got = pieri_ek(schubert_class(G13, (2, 2)), 1)
        assert not got.terms
        assert got.codim == G13.dim + 1

    def test_codim_raised_by_k(self):
        c = schubert_class(G26, (0, 1, 2))
        for k in range(1, 4):
            assert pieri_ek(c, k).codim == 3 + k

    def test_k_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            pieri_ek(zeta(G26), 0)
        with pytest.raises(InvalidIndexError):
            pieri_ek(zeta(G26), 4)

    def test_multiplicity_free(self):
        # products of a single cycle with a one-column class have all
        # coefficients equal to one
        for b in combinations_with_replacement(range(5), 3):
            c = schubert_class(GrassmannianSpec(2, 6), b)
            for k in range(1, 4):
                assert set(pieri_ek(c, k).terms.values()) <= {Fraction(1)}

    def test_full_shift_injective_annihilating(self):
        spec = GrassmannianSpec(2, 5)
        shifted = {}
        for b in combinations_with_replacement(range(spec.box + 1), spec.r + 1):
            idx = make_index(spec, b)
            out = pieri_ek(schubert_class(spec, idx.b), spec.r + 1)
            if idx.b[-1] == spec.box:
                assert not out.terms
            else:
                (target, coeff), = out.terms.items()
                assert coeff == 1
                assert target not in shifted
                shifted[target] = idx.b

    def test_opposite_terms_cancel_at_a_shared_output(self):
        # e_1 takes sigma_{1,1,1} to sigma_{2,1,1} alone, and sigma_{2,1,0}
        # to sigma_{2,1,1} + sigma_{2,2,0} + sigma_{3,1,0}: with opposite
        # signs the shared sigma_{2,1,1} cancels and is not stored
        c = ChowClass(G26, 3, {(1, 1, 1): 1, (0, 1, 2): -1})
        assert pieri_ek(c, 1).terms == {(0, 2, 2): -1, (0, 1, 3): -1}

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_application_order_commutes_sampled(self, data):
        r = data.draw(st.integers(min_value=0, max_value=4), label="r")
        spec = GrassmannianSpec(r, data.draw(st.integers(min_value=r, max_value=9), label="d"))
        b = data.draw(st.sampled_from(list(combinations_with_replacement(range(spec.box + 1), r + 1))))
        i, j = data.draw(st.lists(st.integers(min_value=1, max_value=r + 1), min_size=2, max_size=2))
        c = schubert_class(spec, b)
        assert pieri_ek(pieri_ek(c, i), j) == pieri_ek(pieri_ek(c, j), i)

    def test_application_order_commutes(self):
        spec = GrassmannianSpec(2, 5)
        for b in combinations_with_replacement(range(4), 3):
            c = schubert_class(spec, b)
            for i in range(1, 4):
                for j in range(1, 4):
                    assert pieri_ek(pieri_ek(c, i), j) == pieri_ek(pieri_ek(c, j), i)


class TestChowClass:
    def test_render(self):
        c = ChowClass(G26, 3, {(1, 1, 1): 2, (0, 1, 2): 1})
        assert str(c) == "σ{2,1,0} + 2·σ{1,1,1}"
        assert str(ChowClass(G26, 5, {})) == "0"


class TestIntegrals:
    def test_point_class(self):
        assert integral(schubert_class(G13, (2, 2))) == 1

    def test_integrals_are_ints(self):
        assert type(integral(schubert_class(G13, (2, 2)))) is int
        assert type(brute_zeta_integral(G13, make_index(G13, (0, 0)), 4)) is int
        assert type(brute_zeta_integral(G26, make_index(G26, (0, 0, 2)), 5)) is int

    def test_codim_mismatch_is_error_not_zero(self):
        with pytest.raises(CodimensionError):
            integral(zeta(G13))

    def test_lines_meeting_four_lines(self):
        b = make_index(G13, (0, 0))
        assert zeta_power_integral(G13, b, 4) == 2
        assert brute_zeta_integral(G13, b, 4) == 2

    def test_sigma11_zeta_squared(self):
        # by hand: sigma_{1,1} sigma_1^2 = sigma_{1,1}(sigma_2 + sigma_{1,1})
        b = make_index(G13, (1, 1))
        assert zeta_power_integral(G13, b, 2) == 1
        assert brute_zeta_integral(G13, b, 2) == 1

    def test_castelnuovo_42(self):
        spec = GrassmannianSpec(4, 12)
        assert zeta_power_integral(spec, make_index(spec, (0,) * 5), 10) == 42

    def test_five_nets_of_conics(self):
        b = make_index(G26, (0, 0, 0))
        assert brute_zeta_integral(G26, b, 6) == 5

    def test_k_zero_point_or_nothing(self):
        spec = GrassmannianSpec(2, 4)
        for b in combinations_with_replacement(range(spec.box + 1), spec.r + 1):
            idx = make_index(spec, b)
            if idx.codim != spec.dim:
                continue
            expected = 1 if idx.b == (2, 2, 2) else 0
            assert brute_zeta_integral(spec, idx, 0) == expected

    def test_balance_violation_raises(self):
        b = make_index(G13, (0, 0))
        with pytest.raises(BalanceError):
            zeta_power_integral(G13, b, 3)
        with pytest.raises(BalanceError):
            brute_zeta_integral(G13, b, 5)

    def test_negative_factorial_argument_vanishes(self):
        # sigma_{(0,2,2)} * zeta on G(2, P^4) dies on the box bound; the
        # closed form sees a negative factorial argument and returns 0
        spec = GrassmannianSpec(2, 4)
        b = make_index(spec, (0, 2, 2))
        assert zeta_power_integral(spec, b, 1) == 0
        assert brute_zeta_integral(spec, b, 1) == 0

    def test_r_zero_brute_force_is_the_identity(self):
        # on G(0, P^3) zeta is the fundamental class, so only the point
        # class balances and every power of zeta integrates to 1 against it
        spec = GrassmannianSpec(0, 3)
        point = make_index(spec, (3,))
        assert [brute_zeta_integral(spec, point, k) for k in range(5)] == [1] * 5

    def test_zeta_needs_positive_r(self):
        with pytest.raises(InvalidIndexError):
            zeta(GrassmannianSpec(0, 4))


def test_oracle_exhaustive_small():
    # acceptance covers r <= 3, d <= 15; keep a fast version in the unit suite
    for r in (1, 2):
        for d in range(r, 9):
            spec = GrassmannianSpec(r, d)
            for idx, k in balanced_pairs(spec):
                assert zeta_power_integral(spec, idx, k) == brute_zeta_integral(
                    spec, idx, k
                ), (r, d, idx.b, k)


def _displayed_formula(spec, b, k):
    # k! prod_{i<j} (a_j - a_i) / prod_i (k - d + r + a_i)!, a_i = b_i + i,
    # and 0 as soon as any factorial argument is negative
    a = [b[i] + i for i in range(len(b))]
    args = [k - spec.d + spec.r + a[i] for i in range(len(a))]
    if any(x < 0 for x in args):
        return Fraction(0)
    vandermonde = prod(a[j] - a[i] for i in range(len(a)) for j in range(i + 1, len(a)))
    return Fraction(factorial(k) * vandermonde, prod(factorial(x) for x in args))


def test_closed_form_matches_displayed_formula():
    pairs = vanishing = 0
    for r in range(1, 5):
        for d in range(r, 13):
            spec = GrassmannianSpec(r, d)
            for idx, k in balanced_pairs(spec):
                want = _displayed_formula(spec, idx.b, k)
                assert Fraction(*_closed_form(spec, idx.b, k)) == want, (r, d, idx.b, k)
                pairs += 1
                vanishing += want == 0  # the Vandermonde factor never is
    assert pairs == 2315
    assert vanishing > 0


def test_closed_form_vanishes_exactly_below_the_box_minus_b0():
    # the (0, 1) return is exact: k < (d - r) - b_0 is the one vanishing
    for r in range(1, 5):
        for d in range(r, 13):
            spec = GrassmannianSpec(r, d)
            for b, k in _balanced_tuples(spec):
                got = _closed_form(spec, b, k)
                assert (got == (0, 1)) == (k < spec.box - b[0]), (r, d, b, k)
                assert got[0] != 0 or got == (0, 1), (r, d, b, k)


@lru_cache(maxsize=None)
def _balanced(r, d):
    spec = GrassmannianSpec(r, d)
    return spec, tuple(balanced_pairs(spec))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_oracle_sampled_beyond_exhaustive_range(data):
    # the exhaustive checks stop at r <= 3; sample r = 4, 5 up to d = r + 10
    r = data.draw(st.sampled_from((4, 5)), label="r")
    d = data.draw(st.integers(min_value=r, max_value=r + 10), label="d")
    spec, pairs = _balanced(r, d)
    idx, k = data.draw(st.sampled_from(pairs), label="(b, k)")
    assert zeta_power_integral(spec, idx, k) == brute_zeta_integral(spec, idx, k)


def _dual(b, box):
    return tuple(box - x for x in reversed(b))


class TestPieriOracles:
    def test_layers_from_zero_match_chow_expansion_at_the_dual(self):
        pairs = 0
        for r in range(1, 4):
            for d in range(r, 11):
                spec = GrassmannianSpec(r, d)
                layers = _zeta_layers(spec)
                for idx, k in balanced_pairs(spec):
                    got = _table_count(layers, spec.box, idx.b, k)
                    assert got == layers[k].get(_dual(idx.b, spec.box), 0)
                    assert got == brute_zeta_integral(spec, idx, k), (r, d, idx.b, k)
                    pairs += 1
                # every reached index is the dual of a balanced one, at its k
                reached = {(c, k) for k, layer in enumerate(layers) for c in layer}
                assert reached <= {(_dual(b, spec.box), k) for b, k in _balanced_tuples(spec)}
        assert pairs == 745

    def test_table_matches_closed_form_on_g5_18(self):
        spec = GrassmannianSpec(5, 18)
        layers = _zeta_layers(spec)
        pairs = list(balanced_pairs(spec))
        assert len(pairs) == 5427
        for idx, k in pairs:
            got = _table_count(layers, spec.box, idx.b, k)
            assert got == zeta_power_integral(spec, idx, k), (idx.b, k)

    def test_zeta_step_is_reversed_by_the_dual(self):
        # c is a successor of b exactly when b* is a successor of c*
        for r in range(0, 6):
            for d in range(r, 11):
                box = d - r
                indices = list(combinations_with_replacement(range(box + 1), r + 1))
                steps = {(b, c) for b in indices for c in _zeta_successors(b, box)}
                assert steps == {(_dual(c, box), _dual(b, box)) for b, c in steps}, (r, d)

    def test_zeta_step_matches_pieri_ek(self):
        # the layers step through _zeta_successors alone; compare that
        # step with the general vertical-strip rule
        indices = 0
        for r in range(1, 10):
            for d in range(r, 10):
                spec = GrassmannianSpec(r, d)
                for b in combinations_with_replacement(range(spec.box + 1), r + 1):
                    want = dict.fromkeys(_zeta_successors(b, spec.box), 1)
                    assert pieri_ek(schubert_class(spec, b), r).terms == want, (r, d, b)
                    indices += 1
        assert indices == 1981

    def test_zeta_step_for_r_zero_keeps_b(self):
        assert list(_zeta_successors((2,), 4)) == [(2,)]
        assert list(_zeta_successors((4,), 4)) == [(4,)]

    def test_zeta_step_at_the_box_raises_all_but_the_last(self):
        assert list(_zeta_successors((0, 1, 3), 3)) == [(1, 2, 3)]
        assert list(_zeta_successors((0, 2, 2, 2), 2)) == []
        assert list(_zeta_successors((0, 1, 2), 3)) == [(0, 2, 3), (1, 1, 3), (1, 2, 2)]

    def test_table_for_r_zero_is_the_point(self):
        # the one balanced pair of G(0, P^4) is the point (4,) with k = 0,
        # whose dual is the zero index
        spec = GrassmannianSpec(0, 4)
        layers = _zeta_layers(spec)
        assert layers == [{(0,): 1}]
        rep = _oracle_spec_report(0, 4, layers, _reach_counts(layers, 0, 4)[-1])
        assert rep.passed and rep.detail == "1 pairs"

    def test_table_matches_chow_expansion_on_identity_patterns(self):
        # every rho = 0 triple with g <= 12 lies below the brute-force gate
        # (the largest, G(11, P^22), has C(23, 12) = 1352078 indices)
        for g, r, d in rho_zero_triples(12):
            spec = GrassmannianSpec(r, d)
            layers = _zeta_layers(spec)
            # the table runs from the zero index to the point class
            assert len(layers) == g + 1 and layers[0] == {(0,) * (r + 1): 1}
            assert list(layers[-1]) == [(spec.box,) * (r + 1)]
            patterns = [((0,) * (r + 1), g)]
            if g >= 3:
                patterns.append(((1, 2) + (3,) * (r - 1), g - 3))
            if g >= 3 and r >= 2:
                patterns.append(((0, 1) + (2,) * (r - 2) + (3,), g - 2))
            for b, k in patterns:
                if b[-1] > spec.box:
                    continue
                brute = brute_zeta_integral(spec, make_index(spec, b), k)
                got = _table_count(layers, spec.box, b, k)
                assert got == layers[k].get(_dual(b, spec.box), 0) == brute, (g, r, d, b, k)

    def test_table_for_r_zero_takes_no_step(self):
        # zeta is the fundamental class for r = 0: the table is the zero
        # layer on every G(0, P^d), and it reads 1 at the point class only
        for d in range(6):
            spec = GrassmannianSpec(0, d)
            layers = _zeta_layers(spec)
            assert layers == [{(0,): 1}]
            point = make_index(spec, (d,))
            assert _table_count(layers, d, point.b, 0) == brute_zeta_integral(spec, point, 0) == 1
            assert [_table_count(layers, d, (x,), 0) for x in range(d)] == [0] * d

    def test_layer_counts_do_not_depend_on_the_box(self):
        # from the zero index, the layers of G(r, P^d) are those of
        # G(r, P^D), D >= d, on the indices that the box d - r holds
        for r in range(1, 6):
            runs = {d: _zeta_layers(GrassmannianSpec(r, d)) for d in range(r, 15)}
            for big, layers in runs.items():
                for d in range(r, big + 1):
                    part = [
                        {c: n for c, n in layer.items() if c[-1] <= d - r}
                        for layer in layers[: len(runs[d])]
                    ]
                    assert part == runs[d], (r, d, big)
                    assert not any(c[-1] <= d - r for layer in layers[len(runs[d]) :] for c in layer)

    def test_oracle_report_names_a_wrong_table_entry(self):
        # (2, 2, 4) has k = 2 and (0, 0, 0) has k = 6: the report names
        # the lexicographically first failing b, whatever its k
        spec = GrassmannianSpec(2, 6)
        layers = _zeta_layers(spec)
        layers[6][(4, 4, 4)] += 1
        layers[2][_dual((2, 2, 4), spec.box)] += 1
        rep = _oracle_spec_report(2, 6, layers, _reach_counts(layers, 2, 4)[-1])
        assert not rep.passed
        assert (rep.lhs, rep.rhs) == ("closed((0, 0, 0),k=6)=5", "brute=6")


@pytest.mark.parametrize(
    "b, k, fragment",
    [
        (make_index(G26, (0, 0, 0)), 4, "does not live on the given Grassmannian"),
        (make_index(G13, (0, 0)), -1, "exponent must be >= 0; got -1"),
    ],
)
def test_zeta_power_integral_named_errors(b, k, fragment):
    with pytest.raises(BalanceError, match=fragment):
        zeta_power_integral(G13, b, k)
