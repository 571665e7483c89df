"""Buchberger's single insert path: inputs in any shape, and seeded ideals.

Inputs go through the same rewrite as S-pairs, so inputs that are not
defining binomials (misoriented, repeated, reducible by one another, or
rewriting to 0 = 0) must give the basis the plain defining binomials give.
Random binomial ideals are checked against the other strategy and
against a reduced-basis check written here from the definitions.
"""

import random

import pytest

from aperykit.errors import LengthMismatchError
from aperykit.groebner import (
    Binomial,
    PackedReducer,
    buchberger,
    divides,
    ideal_generators,
)
from aperykit.orders import GREATER, apery_order, compare, lex_order
from aperykit.semigroup import NumericalSemigroup

MONOIDS = [(3, 5, 7), (7, 9, 11), (5, 7, 9, 11), (6, 7, 15, 16, 17)]


def apery_setup(gens):
    S = NumericalSemigroup(gens)
    k = len(gens)
    order = apery_order(k, k, gens)
    return order, ideal_generators(S, order)


def lcm(a, b):
    return tuple(map(max, a, b))


def assert_reduced_basis(basis, inputs):
    """The definitions of a reduced basis, checked on ``basis`` directly."""
    order = basis.order
    elements = basis.elements
    reducer = PackedReducer.for_basis(basis)
    nf = reducer.reduce_exponent
    for b in elements:
        assert compare(order, b.lead, b.trail) == GREATER
    # every S-pair reduces to zero
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            w = lcm(a.lead, b.lead)
            left = tuple(x - p + q for x, p, q in zip(w, a.lead, a.trail))
            right = tuple(x - p + q for x, p, q in zip(w, b.lead, b.trail))
            assert nf(left) == nf(right), (a, b)
    # the leads form an antichain and no trail is divisible by a lead
    for a in elements:
        for b in elements:
            if a is not b:
                assert not divides(a.lead, b.lead), (a, b)
            assert not divides(a.lead, b.trail), (a, b)
    # every input lies in the ideal of the basis
    for g in inputs:
        assert nf(tuple(g.lead)) == nf(tuple(g.trail)), g
    keys = [order.key(b.lead) for b in elements]
    assert keys == sorted(keys)
    assert basis.corners == frozenset(b.lead for b in elements)


@pytest.mark.parametrize("gens", MONOIDS)
def test_misoriented_inputs_give_the_same_basis(gens):
    order, inputs = apery_setup(gens)
    flipped = [Binomial(b.trail, b.lead) for b in inputs]
    assert buchberger(flipped, order) == buchberger(inputs, order)


@pytest.mark.parametrize("gens", MONOIDS)
def test_duplicated_inputs_give_the_same_basis(gens):
    order, inputs = apery_setup(gens)
    assert buchberger(inputs + inputs[::-1], order) == buchberger(inputs, order)


@pytest.mark.parametrize("gens", MONOIDS)
def test_input_lead_divisible_by_another_input_lead(gens):
    # the multiple comes first, so the later plain input's lead divides it
    order, inputs = apery_setup(gens)
    shift = tuple(1 if c == 1 else 0 for c in range(order.num_vars))
    multiple = Binomial(
        tuple(map(sum, zip(inputs[0].lead, shift))),
        tuple(map(sum, zip(inputs[0].trail, shift))),
    )
    expect = buchberger(inputs, order)
    assert buchberger([multiple] + inputs, order) == expect
    assert buchberger(inputs + [multiple], order) == expect


@pytest.mark.parametrize("gens", MONOIDS)
def test_inputs_that_rewrite_to_zero_are_dropped(gens):
    order, inputs = apery_setup(gens)
    expect = buchberger(inputs, order)
    # the reduced basis itself, then the inputs again: all of the latter
    # rewrite to 0 = 0 against the elements already in
    assert buchberger(list(expect.elements) + inputs, order) == expect
    same = [Binomial(b.lead, b.lead) for b in inputs]
    assert buchberger(same + inputs + same, order) == expect


def test_only_trivial_inputs_give_the_empty_basis():
    order = lex_order(3)
    basis = buchberger([Binomial((1, 2, 0), (1, 2, 0))], order)
    assert basis.elements == ()
    assert basis.corners == frozenset()
    assert buchberger([], order).elements == ()


@pytest.mark.parametrize(
    "lead, trail",
    [((1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1)), ((1, 0, 0, 0), (0, 0, 0, 1))],
)
def test_wrong_length_input_raises(lead, trail):
    with pytest.raises(LengthMismatchError):
        buchberger([Binomial(lead, trail)], lex_order(3))


def test_wrong_length_raises_even_after_valid_inputs():
    order, inputs = apery_setup((3, 5, 7))
    with pytest.raises(LengthMismatchError):
        buchberger(inputs + [Binomial((1, 0), (0, 1))], order)


def random_ideal(rng, m):
    """A few binomials with small exponents, in random orientation."""
    def monomial():
        return tuple(rng.randint(0, 3) for _ in range(m))

    return [Binomial(monomial(), monomial()) for _ in range(rng.randint(2, 5))]


def random_orders(rng, m):
    weights = [rng.randint(1, 9) for _ in range(m - 1)]
    j = rng.randint(1, m - 1)
    return [lex_order(m), apery_order(m - 1, j, weights)]


@pytest.mark.parametrize("seed", range(12))
def test_random_binomial_ideals(seed):
    rng = random.Random(seed)
    for _ in range(4):
        m = rng.randint(3, 5)
        inputs = random_ideal(rng, m)
        for order in random_orders(rng, m):
            basis = buchberger(inputs, order)
            assert_reduced_basis(basis, inputs)
            assert buchberger(inputs, order, strategy="normal") == basis


@pytest.mark.parametrize("gens", MONOIDS)
def test_defining_binomials_pass_the_local_check(gens):
    order, inputs = apery_setup(gens)
    assert_reduced_basis(buchberger(inputs, order), inputs)
