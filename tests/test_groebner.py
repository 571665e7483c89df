"""Staircase engine: golden bases, normal forms, uniqueness, degree identity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperykit.groebner import (
    Binomial,
    buchberger,
    divides,
    ideal_generators,
    in_staircase_complement,
    normal_form,
    phi_degree,
)
from aperykit.orders import GREATER, apery_order, compare, lex_order
from aperykit.semigroup import NumericalSemigroup

# The reduced basis of the ideal of <7,9,11> under lex x > y1 > y2 > y3,
# transcribed element by element; the leads are the published corner set.
LEX_BASIS_7_9_11 = {
    ((0, 0, 11, 0), (0, 0, 0, 9)),
    ((0, 1, 0, 1), (0, 0, 2, 0)),
    ((0, 1, 9, 0), (0, 0, 0, 8)),
    ((0, 2, 7, 0), (0, 0, 0, 7)),
    ((0, 3, 5, 0), (0, 0, 0, 6)),
    ((0, 4, 3, 0), (0, 0, 0, 5)),
    ((0, 5, 1, 0), (0, 0, 0, 4)),
    ((0, 6, 0, 0), (0, 0, 1, 3)),
    ((1, 0, 0, 2), (0, 2, 1, 0)),
    ((1, 0, 1, 1), (0, 3, 0, 0)),
    ((1, 0, 3, 0), (0, 4, 0, 0)),
    ((1, 2, 2, 0), (0, 0, 0, 3)),
    ((1, 3, 0, 0), (0, 0, 0, 2)),
    ((2, 0, 1, 0), (0, 0, 0, 1)),
    ((2, 1, 0, 0), (0, 0, 1, 0)),
    ((3, 0, 0, 1), (0, 2, 0, 0)),
    ((7, 0, 0, 0), (0, 1, 0, 0)),
}

NF_TABLE_7_9_11 = {
    1: (1, 0, 0, 0), 2: (2, 0, 0, 0), 3: (3, 0, 0, 0), 4: (4, 0, 0, 0),
    5: (5, 0, 0, 0), 6: (6, 0, 0, 0), 8: (1, 1, 0, 0), 10: (1, 0, 1, 0),
    12: (1, 0, 0, 1), 13: (2, 0, 0, 1), 15: (1, 2, 0, 0), 17: (1, 1, 1, 0),
    19: (1, 0, 2, 0), 24: (1, 2, 1, 0), 26: (1, 1, 2, 0),
}

# Example bases for <7,8,9,13> wrt 13: the 14-element one arises from the
# ascending-lex tie layer (equivalently reverse-lex over y1,y3,y2), the
# 11-element one from lex over y2,y3,y1 (equivalently reverse-lex over
# y1,y2,y3).
BASIS_14_7_8_9_13 = {
    ((7, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    ((4, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((2, 0, 0, 2, 0), (0, 1, 0, 0, 1)),
    ((1, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
    ((1, 0, 0, 0, 1), (0, 2, 0, 0, 0)),
    ((0, 0, 5, 0, 0), (0, 2, 0, 0, 2)),
    ((0, 0, 3, 1, 0), (0, 1, 0, 0, 2)),
    ((0, 1, 3, 0, 0), (0, 0, 0, 2, 1)),
    ((0, 0, 0, 3, 0), (0, 2, 0, 0, 1)),
    ((0, 0, 1, 2, 0), (0, 0, 0, 0, 2)),
    ((0, 2, 1, 0, 0), (0, 0, 0, 1, 1)),
    ((0, 3, 0, 0, 0), (0, 0, 1, 0, 1)),
    ((0, 1, 0, 1, 0), (0, 0, 2, 0, 0)),
}
BASIS_11_7_8_9_13 = {
    ((7, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    ((4, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((2, 0, 0, 2, 0), (0, 1, 0, 0, 1)),
    ((1, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
    ((1, 0, 0, 0, 1), (0, 2, 0, 0, 0)),
    ((0, 0, 0, 3, 0), (0, 2, 0, 0, 1)),
    ((0, 0, 1, 2, 0), (0, 0, 0, 0, 2)),
    ((0, 2, 1, 0, 0), (0, 0, 0, 1, 1)),
    ((0, 3, 0, 0, 0), (0, 0, 1, 0, 1)),
    ((0, 0, 2, 0, 0), (0, 1, 0, 1, 0)),
}


def lex_basis_7_9_11():
    S = NumericalSemigroup([7, 9, 11])
    order = lex_order(4)
    return buchberger(ideal_generators(S, order), order)


def as_pairs(basis):
    return {(b.lead, b.trail) for b in basis.elements}


class TestIdealGenerators:
    def test_published_generators(self):
        S = NumericalSemigroup([7, 9, 11])
        order = lex_order(4)
        gens = ideal_generators(S, order)
        assert {(g.lead, g.trail) for g in gens} == {
            ((7, 0, 0, 0), (0, 1, 0, 0)),
            ((9, 0, 0, 0), (0, 0, 1, 0)),
            ((11, 0, 0, 0), (0, 0, 0, 1)),
        }

    def test_single_generator(self):
        S = NumericalSemigroup([1])
        gens = ideal_generators(S, lex_order(2))
        assert [(g.lead, g.trail) for g in gens] == [((1, 0), (0, 1))]

    def test_orientation_follows_order(self):
        for g in ideal_generators(NumericalSemigroup([7, 9, 11]), lex_order(4)):
            assert g.lead[0] > 0  # under lex the x side leads


class TestGoldenBases:
    def test_lex_basis_7_9_11(self):
        basis = lex_basis_7_9_11()
        assert len(basis.elements) == 17
        assert as_pairs(basis) == LEX_BASIS_7_9_11
        assert basis.corners == {lead for lead, _ in LEX_BASIS_7_9_11}

    def test_bases_7_8_9_13(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        for inner, flavor, expected in [
            ((1, 2, 3), "lex", BASIS_14_7_8_9_13),
            ((1, 3, 2), "revlex", BASIS_14_7_8_9_13),
            ((2, 3, 1), "lex", BASIS_11_7_8_9_13),
            ((1, 2, 3), "revlex", BASIS_11_7_8_9_13),
        ]:
            order = apery_order(4, 4, S.generators, inner=inner, flavor=flavor)
            basis = buchberger(ideal_generators(S, order), order)
            assert as_pairs(basis) == expected, (inner, flavor)

    def test_kernel_of_2_3_by_degree_scan(self):
        # independent oracle: x-free binomials u - v with equal weighted
        # degree <= 12, minimal under componentwise order
        relations = set()
        for a1 in range(7):
            for b1 in range(5):
                for a2 in range(7):
                    for b2 in range(5):
                        if (a1, b1) == (a2, b2):
                            continue
                        d1 = 2 * a1 + 3 * b1
                        if d1 != 2 * a2 + 3 * b2 or d1 > 12:
                            continue
                        if min(a1, a2) == 0 or min(b1, b2) == 0:
                            relations.add(frozenset([(a1, b1), (a2, b2)]))
        minimal = min(relations, key=lambda r: max(sum(p) for p in r))
        assert minimal == frozenset([(3, 0), (0, 2)])  # y1^3 = y2^2

        S = NumericalSemigroup([2, 3])
        order = lex_order(3)
        basis = buchberger(ideal_generators(S, order), order)
        x_free = {
            (b.lead, b.trail) for b in basis.elements if b.lead[0] == b.trail[0] == 0
        }
        assert x_free == {((0, 3, 0), (0, 0, 2))}


class TestReducedness:
    def test_structure(self):
        basis = lex_basis_7_9_11()
        leads = [b.lead for b in basis.elements]
        for i, b in enumerate(basis.elements):
            assert compare(basis.order, b.lead, b.trail) == GREATER
            assert in_staircase_complement(b.trail, basis)
            assert not any(
                divides(q, b.lead) for j, q in enumerate(leads) if j != i
            )

    def test_uniqueness_across_strategies(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        order = apery_order(4, 4, S.generators)
        gens = ideal_generators(S, order)
        normal = buchberger(gens, order, strategy="normal")
        fifo = buchberger(gens, order, strategy="fifo")
        assert normal.elements == fifo.elements

    def test_strategy_equivalence_on_random_monoids(self, small_corpus):
        for S in small_corpus[:10]:
            order = apery_order(len(S.generators), 1, S.generators)
            gens = ideal_generators(S, order)
            assert (
                buchberger(gens, order, strategy="normal").elements
                == buchberger(gens, order, strategy="fifo").elements
            )


class TestNormalForm:
    def test_published_table(self):
        basis = lex_basis_7_9_11()
        for l, expected in NF_TABLE_7_9_11.items():
            assert normal_form((l, 0, 0, 0), basis) == expected

    def test_members_become_x_free(self):
        basis = lex_basis_7_9_11()
        assert normal_form((26 + 7, 0, 0, 0), basis)[0] == 0  # 33 = 26+7 is a member

    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4).map(tuple))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_degree_preserving(self, v):
        basis = lex_basis_7_9_11()
        nf = normal_form(v, basis)
        assert normal_form(nf, basis) == nf
        assert in_staircase_complement(nf, basis)
        assert phi_degree(nf, (7, 9, 11)) == phi_degree(v, (7, 9, 11))

    @given(
        st.lists(st.integers(0, 10), min_size=4, max_size=4).map(tuple),
        st.lists(st.integers(0, 10), min_size=4, max_size=4).map(tuple),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_characterization(self, u, v):
        # equal normal forms exactly when the weighted degrees agree
        basis = lex_basis_7_9_11()
        same_nf = normal_form(u, basis) == normal_form(v, basis)
        same_degree = phi_degree(u, (7, 9, 11)) == phi_degree(v, (7, 9, 11))
        assert same_nf == same_degree

    def test_degree_trades_preserve_normal_form(self):
        rng = random.Random(11)
        basis = lex_basis_7_9_11()
        gens = (7, 9, 11)
        for _ in range(25):
            v = tuple(rng.randint(0, 6) for _ in range(4))
            i = rng.randint(1, 3)
            traded = list(v)
            traded[0] += gens[i - 1]  # same weighted degree as bumping y_i
            w = list(v)
            w[i] += 1
            assert normal_form(tuple(traded), basis) == normal_form(tuple(w), basis)


class TestStaircase:
    def test_published_membership(self):
        basis = lex_basis_7_9_11()
        assert not in_staircase_complement((1, 1, 0, 1), basis)
        assert in_staircase_complement((0, 0, 0, 0), basis)
        assert not in_staircase_complement((7, 0, 0, 0), basis)

    @pytest.mark.parametrize("v", [(7,), (7, 0, 0, 0, 0)])
    def test_wrong_length_raises_like_normal_form(self, v):
        basis = lex_basis_7_9_11()
        for query in (normal_form, in_staircase_complement):
            with pytest.raises(ValueError, match="expected an exponent vector of length 4"):
                query(v, basis)

    def test_phi_degree_examples(self):
        assert phi_degree((1, 1, 2, 0), (7, 9, 11)) == 26
        assert phi_degree((0, 0, 0, 0), (7, 9, 11)) == 0


class TestBinomialValidation:
    def test_buchberger_rejects_unknown_strategy(self):
        S = NumericalSemigroup([2, 3])
        order = lex_order(3)
        with pytest.raises(ValueError):
            buchberger(ideal_generators(S, order), order, strategy="sugar")

    def test_degenerate_generators_are_dropped(self):
        order = lex_order(2)
        basis = buchberger(
            [Binomial((1, 0), (0, 1)), Binomial((1, 0), (1, 0))], order
        )
        assert len(basis.elements) == 1
