"""The packed kernels against flat references.

``PackedReducer.reduce_packed`` tests a monomial only against the leads
whose support lies inside its own; a flat scan of every lead must make the
same substitutions, on reduced bases and on item lists that are no basis
at all (Buchberger's reducer mid-run).  ``face_complement`` buckets the
corners and carries degrees down the walk; it must equal a scan of the
face's bounding box (the walk tests' ``box_scan``) at sizes the
acceptance corpus never reaches.  The
field layout must round-trip and keep its range check.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperykit.groebner import (
    PackedReducer,
    buchberger,
    face_complement,
    ideal_generators,
    oriented,
    pack_exponent,
    phi_degree,
    unpack_exponent,
)
from aperykit.orders import apery_order, lex_order
from aperykit.sampling import random_corpus
from aperykit.semigroup import NumericalSemigroup

from .test_staircase_walk import box_scan

SEED = 4099
LIMIT = 1 << 62


def flat_reduce(m, items, v):
    """Rewrite packed v with the first dividing lead of ``items``, restarting
    after each substitution; returns the result and each item's use count."""
    high = sum(1 << (64 * c + 63) for c in range(m))
    used = [0] * len(items)
    i = 0
    while i < len(items):
        q, t = items[i]
        if ((v | high) - q) & high == high:
            v += t - q
            used[i] += 1
            i = 0
        else:
            i += 1
    return v, used


def tagged_reduce(m, items, v):
    """``reduce_packed`` on ``items`` with one extra tag variable per item,
    raised by each substitution with that item; leads never touch the tags,
    so the rewrites are the untagged ones, and the tags count the uses."""
    n = len(items)
    tags = [1 << (64 * (m + i)) for i in range(n)]
    reducer = PackedReducer(m + n, [(q, t + tag) for (q, t), tag in zip(items, tags)])
    w = reducer.reduce_packed(v)
    fields = unpack_exponent(w, m + n)
    return pack_exponent(fields[:m]), list(fields[m:])


def corpus_reducers():
    """(m, packed items) of the Apery and lex bases of a seeded corpus."""
    out = []
    for S in random_corpus(SEED, 8, kmin=3, kmax=5, max_gen=60):
        k = len(S.generators)
        for order in (apery_order(k, k, S.generators), lex_order(k + 1)):
            basis = buchberger(ideal_generators(S, order), order)
            items = [(pack_exponent(b.lead), pack_exponent(b.trail)) for b in basis.elements]
            out.append((k + 1, items))
    return out


def random_items(rng, m, n):
    """n lex-oriented binomials on m variables: a terminating rewrite system
    whose leads need not be an antichain or reduced."""
    order = lex_order(m)
    items = []
    while len(items) < n:
        u, v = (tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(m)) for _ in range(2))
        b = oriented(u, v, order)
        if b is not None:
            items.append((pack_exponent(b.lead), pack_exponent(b.trail)))
    return items


class TestFilteredReducer:
    def test_matches_a_flat_scan_on_corpus_bases(self):
        rng = random.Random(SEED)
        for m, items in corpus_reducers():
            for _ in range(30):
                v = pack_exponent([rng.randint(0, 40)] + [rng.randint(0, 4) for _ in range(m - 1)])
                assert tagged_reduce(m, items, v) == flat_reduce(m, items, v)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_a_flat_scan_on_item_lists_that_are_no_basis(self, m):
        rng = random.Random(SEED + m)
        for _ in range(40):
            items = random_items(rng, m, rng.randint(1, 8))
            for _ in range(10):
                v = pack_exponent([rng.randint(0, 6) for _ in range(m)])
                assert tagged_reduce(m, items, v) == flat_reduce(m, items, v)


def band_monoids(rng, count, kmin, kmax, lo, hi):
    """``count`` monoids of kmin..kmax minimal generators drawn from [lo, hi]."""
    out = []
    while len(out) < count:
        k = rng.randint(kmin, kmax)
        try:
            out.append(NumericalSemigroup(sorted(rng.sample(range(lo, hi + 1), k))))
        except ValueError:
            continue
    return out


def test_face_walk_equals_the_box_scan_on_wide_generators():
    for S in band_monoids(random.Random(SEED), 3, 5, 6, 200, 400):
        gens = S.generators
        k = len(gens)
        for j in (1, k):
            order = apery_order(k, j, gens)
            basis = buchberger(ideal_generators(S, order), order)
            free = [c for c in range(1, k + 1) if c != j]
            walk = face_complement(basis, free, [gens[c - 1] for c in free])
            walk = {d: unpack_exponent(v, k + 1) for d, v in walk.items()}
            assert walk == box_scan(basis, free, lambda v: phi_degree(v, gens))
            assert len(walk) == gens[j - 1]


class TestFieldLayout:
    @given(st.lists(st.integers(0, LIMIT - 1), max_size=9))
    def test_round_trip(self, v):
        assert unpack_exponent(pack_exponent(v), len(v)) == tuple(v)

    @pytest.mark.parametrize("bad", [-1, LIMIT])
    def test_out_of_range_exponent_raises(self, bad):
        with pytest.raises(ValueError, match=f"exponent {bad} out of packable range"):
            pack_exponent((3, bad, 0))

    def test_largest_exponent_round_trips(self):
        v = (LIMIT - 1, 0, LIMIT - 1)
        assert unpack_exponent(pack_exponent(v), 3) == v

    @pytest.mark.parametrize("l", [0, 1, 977, LIMIT - 1])
    def test_a_scalar_packs_to_itself(self, l):
        # classify reads x^l off the packed integer l
        assert pack_exponent((l,)) == l
        assert pack_exponent((l, 0, 0)) == l

    def test_fields_are_64_bits_little_endian(self):
        assert pack_exponent((1, 2, 3)) == 1 + (2 << 64) + (3 << 128)
