"""A reduced basis is its packed (lead, trail) pairs; tuples are views of them.

Every basis ``buchberger`` returns on a seeded corpus (numerical monoids
under Apery and lex orderings, affine monoids under block orderings) is
checked against its own tuple views, its reducer and a copy built by hand
from the same pairs.  Hand-built bases that are not S-homogeneous must be
refused by the read-offs on both of ``packed_degrees``' paths.
"""

import pytest

import aperykit.groebner as groebner
from aperykit.apery import apery_delta, classify, extremal_set, gaps_via_groebner
from aperykit.groebner import (
    GroebnerBasis,
    PackedReducer,
    buchberger,
    field_step,
    ideal_generators,
    in_staircase_complement,
    normal_form,
    pack_exponent,
)
from aperykit.orders import apery_order, lex_order
from aperykit.sampling import random_corpus
from aperykit.semigroup import NumericalSemigroup

from .test_staircase_walk import affine_cases

SEED = 7207


def corpus_bases():
    out = []
    for S in random_corpus(SEED, 10, kmin=2, kmax=5, max_gen=40):
        k = len(S.generators)
        orders = [apery_order(k, j, S.generators) for j in range(1, k + 1)]
        for order in orders + [lex_order(k + 1)]:
            out.append(buchberger(ideal_generators(S, order), order))
    return out + [basis for basis, *_ in affine_cases()]


@pytest.fixture(scope="module")
def bases():
    return corpus_bases()


class TestViews:
    def test_elements_pack_to_the_pairs(self, bases):
        for basis in bases:
            assert len(basis.elements) == len(basis.pairs)
            for b, pair in zip(basis.elements, basis.pairs):
                assert (pack_exponent(b.lead), pack_exponent(b.trail)) == pair

    def test_corners_are_the_leads(self, bases):
        for basis in bases:
            assert basis.corners == {b.lead for b in basis.elements}

    def test_reducer_items_are_the_pairs_in_order(self, bases):
        for basis in bases:
            items = PackedReducer.for_basis(basis).items
            assert [(q, t) for q, t, _ in items] == list(basis.pairs)

    def test_a_hand_built_copy_is_equal_and_hashes_alike(self, bases):
        for basis in bases:
            copy = GroebnerBasis(order=basis.order, pairs=tuple((q, t) for q, t in basis.pairs))
            assert copy == basis
            assert hash(copy) == hash(basis)
            assert copy.elements == basis.elements
            assert copy == basis  # reading the views changes neither value

    def test_read_offs_leave_the_views_unread(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        order = apery_order(4, 4, S.generators)
        basis = buchberger(ideal_generators(S, order), order)
        report = apery_delta(S, 4, basis=basis)
        extremal_set(S, report, basis)
        apery_delta(S, 4, method="scan", basis=basis)
        classify(S, 19, basis)
        gaps_via_groebner(S, basis)
        normal_form((30, 0, 0, 0, 0), basis)
        in_staircase_complement((0, 1, 1, 0, 0), basis)
        assert "elements" not in vars(basis) and "corners" not in vars(basis)

    @pytest.mark.parametrize("bad", [-1, 1 << 62, 1 << (64 * 3)])
    def test_rejects_pairs_that_do_not_pack(self, bad):
        with pytest.raises(ValueError, match="below 2\\^62"):
            GroebnerBasis(order=lex_order(3), pairs=((pack_exponent((1, 0, 0)), bad),))


class TestHomogeneityCheck:
    S = NumericalSemigroup([7, 9, 11])

    def tampered(self, bump):
        """The a_3 Apery basis of S with ``bump`` added to its last trail."""
        order = apery_order(3, 3, self.S.generators)
        pairs = buchberger(ideal_generators(self.S, order), order).pairs
        (q, t), rest = pairs[-1], pairs[:-1]
        return GroebnerBasis(order=order, pairs=rest + ((q, t + bump),))

    @pytest.mark.parametrize(
        "bump, fallback",
        [(1, False), (field_step(1) << 58, True)],  # x + 1; y_1 + 2^58, past the exact bound
    )
    def test_read_offs_refuse_a_non_homogeneous_trail(self, monkeypatch, bump, fallback):
        calls = []
        phi_degree = groebner.phi_degree
        monkeypatch.setattr(
            groebner, "phi_degree", lambda v, w: calls.append(v) or phi_degree(v, w)
        )
        basis = self.tampered(bump)
        with pytest.raises(ValueError, match="homogeneous"):
            apery_delta(self.S, 3, basis=basis)
        with pytest.raises(ValueError, match="homogeneous"):
            classify(self.S, 5, basis)
        assert bool(calls) == fallback
