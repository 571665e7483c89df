"""The shared staircase face walk, the report read-off and the reducer's standardness test.

Each packed route is compared with a test-local reference written with
tuple ``divides``: the face walk with a scan of the face's bounding box,
``extremal_set`` with a per-coordinate bump check, and
``in_staircase_complement`` with a corner loop.  Random affine monoids in
d = 2, 3 are checked against the definition of Ap(S, Lambda).
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperykit.affine import (
    AffineMonoid,
    affine_members_bruteforce,
    apery_affine,
    validate_lambda,
)
from aperykit.apery import apery_delta, extremal_set
from aperykit.errors import ConeMismatchError, InternalInvariantError
from aperykit.groebner import (
    GroebnerBasis,
    buchberger,
    defining_binomials,
    divides,
    face_complement,
    ideal_generators,
    in_staircase_complement,
    pack_exponent,
    phi_degree,
    unpack_exponent,
)
from aperykit.orders import apery_order, block_lambda_order, lex_order
from aperykit.sampling import random_corpus
from aperykit.semigroup import NumericalSemigroup

from .test_affine import graded_degree

SEED = 6151


def numerical_cases():
    """(basis, free columns, weights, degree) for every Apery ordering of a seeded corpus."""
    out = []
    for S in random_corpus(SEED, 12, kmin=2, kmax=5, max_gen=40):
        gens = S.generators
        k = len(gens)
        for j in range(1, k + 1):
            order = apery_order(k, j, gens)
            basis = buchberger(ideal_generators(S, order), order)
            free = [c for c in range(1, k + 1) if c != j]
            weights = [gens[c - 1] for c in free]
            out.append((basis, free, weights, lambda v, g=gens: phi_degree(v, g)))
    return out


def affine_cases():
    """The same for the block orderings of seeded axis-Lambda affine monoids.

    The walk carries packed Z^d degrees, so the reference degree is packed too.
    """
    rng = random.Random(SEED)
    out = []
    for _ in range(12):
        d = rng.choice((2, 3))
        axes = [tuple(rng.randint(1, 3) if c == i else 0 for c in range(d)) for i in range(d)]
        others = set()
        size = rng.randint(1, 3)
        while len(others) < size:
            g = tuple(rng.randint(0, 4) for _ in range(d))
            if any(g) and g not in axes:
                others.add(g)
        reordered = tuple(sorted(others)) + tuple(axes)
        order = block_lambda_order(d, reordered, d)
        basis = buchberger(defining_binomials(reordered, order), order)
        free = list(range(d, d + len(others)))
        weights = [pack_exponent(a) for a in reordered[: len(others)]]
        out.append((
            basis, free, weights, lambda v, d=d, r=reordered: pack_exponent(graded_degree(v, d, r))
        ))
    return out


def box_scan(basis, free_cols, degree):
    """Face complement by scanning the box under the pure-power corners."""
    m = basis.order.num_vars
    bounds = []
    for c in free_cols:
        powers = [q[c] for q in basis.corners if q[c] and not any(q[:c] + q[c + 1 :])]
        bounds.append(min(powers))
    out = {}
    for exps in product(*(range(b) for b in bounds)):
        point = [0] * m
        for c, e in zip(free_cols, exps):
            point[c] = e
        point = tuple(point)
        if not any(divides(q, point) for q in basis.corners):
            out[degree(point)] = point
    return out


def unpacked_walk(basis, free, weights):
    """``face_complement`` with its packed points unpacked (degrees stay packed)."""
    m = basis.order.num_vars
    return {d: unpack_exponent(v, m) for d, v in face_complement(basis, free, weights).items()}


class TestFaceComplement:
    @pytest.mark.parametrize("cases", [numerical_cases, affine_cases])
    def test_equals_the_box_scan(self, cases):
        for basis, free, weights, degree in cases():
            assert unpacked_walk(basis, free, weights) == box_scan(basis, free, degree)

    def test_rejects_a_face_without_a_pure_power_corner(self):
        # y1*y2 bounds neither y1 nor y2 alone: the complement is infinite
        # (the walk reads its corners off the packed leads of ``pairs``)
        leads = ((0, 1, 1), (1, 0, 0))
        basis = GroebnerBasis(order=lex_order(3), pairs=tuple((pack_exponent(q), 0) for q in leads))
        with pytest.raises(InternalInvariantError, match="pure-power corner"):
            face_complement(basis, [1, 2], [1, 1])

    def test_rejects_a_degree_reached_twice(self):
        S = NumericalSemigroup([7, 9, 11])
        order = apery_order(3, 3, S.generators)
        basis = buchberger(ideal_generators(S, order), order)
        with pytest.raises(InternalInvariantError, match="reached twice"):
            face_complement(basis, [1, 2], [0, 0])


def tuple_extremal(S, report, basis):
    k = len(S.generators)
    out = []
    for element in report.elements:
        rep = report.representations[element]
        bumps = (rep[:i] + (rep[i] + 1,) + rep[i + 1 :] for i in range(1, k))
        if all(any(divides(q, b) for q in basis.corners) for b in bumps):
            out.append(element)
    return out


def band_monoids(count=3, lo=200, hi=400):
    """Seeded monoids of 5 or 6 generators drawn from [lo, hi]."""
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        try:
            out.append(NumericalSemigroup(sorted(rng.sample(range(lo, hi + 1), rng.randint(5, 6)))))
        except ValueError:
            continue
    return out


def test_extremal_set_equals_tuple_reference_on_every_rotation(corpus100):
    """Every revlex rotation plus the default lex flavor, on the corpus and a band."""
    for S in corpus100 + band_monoids():
        gens = S.generators
        k = len(gens)
        choices = [
            (tuple([p for p in range(1, k) if p != i] + [i]), "revlex") for i in range(1, k)
        ] + [(None, "lex")]
        for inner, flavor in choices:
            order = apery_order(k, k, gens, inner=inner, flavor=flavor)
            basis = buchberger(ideal_generators(S, order), order)
            report = apery_delta(S, k, inner=inner, flavor=flavor, basis=basis)
            assert extremal_set(S, report, basis) == tuple_extremal(S, report, basis)


BASES = [
    buchberger(ideal_generators(S, order), order)
    for S in (NumericalSemigroup(g) for g in ([7, 9, 11], [5, 8, 11, 14], [3, 7]))
    for order in (lex_order(len(S.generators) + 1), apery_order(len(S.generators), 1, S.generators))
]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_in_staircase_complement_matches_corner_loop(data):
    basis = data.draw(st.sampled_from(BASES))
    m = basis.order.num_vars
    v = data.draw(st.tuples(*[st.integers(0, 14)] * m))
    assert in_staircase_complement(v, basis) == (not any(divides(q, v) for q in basis.corners))


def random_affine(rng):
    """A random pointed affine monoid in d = 2, 3 with a cone-spanning Lambda."""
    while True:
        d = rng.choice((2, 3))
        gens = set()
        size = rng.randint(d + 1, d + 3)
        while len(gens) < size:
            g = tuple(rng.randint(0, 3) for _ in range(d))
            if any(g):
                gens.add(g)
        M = AffineMonoid(d, tuple(sorted(gens)))
        indices = rng.sample(range(len(gens)), d)
        try:
            return M, validate_lambda(M, indices)
        except ConeMismatchError:
            continue


def test_random_affine_apery_sets_match_the_definition():
    rng = random.Random(SEED)
    for _ in range(40):
        M, lam = random_affine(rng)
        apery = apery_affine(M, lam=lam).elements
        lam_gens = [M.generators[i] for i in lam.indices]
        bound = max(map(sum, apery)) + max(map(sum, M.generators))
        members = affine_members_bruteforce(M, bound)
        for a in apery:
            assert a in members
            for g in lam_gens:
                assert tuple(x - y for x, y in zip(a, g)) not in members
        # A + <Lambda>, cut at the bound, is closed under adding any generator
        # and so holds every member up to the bound
        span = set(apery)
        frontier = list(apery)
        while frontier:
            p = frontier.pop()
            for g in lam_gens:
                q = tuple(x + y for x, y in zip(p, g))
                if sum(q) <= bound and q not in span:
                    span.add(q)
                    frontier.append(q)
        for p in span:
            for g in M.generators:
                q = tuple(x + y for x, y in zip(p, g))
                assert sum(q) > bound or q in span, (M.generators, lam.indices, p, g)
        assert span == members
