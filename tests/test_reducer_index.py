"""``PackedReducer`` keeps its per-support index through ``append`` and ``retire``.

Buchberger's loop reducer is extended and pruned in place, so after every
step each cached lead list must equal the flat rebuild from ``items``, in
item order, and every reduction must be the one a freshly built reducer
over the same items gives.
"""

import random

import pytest

from aperykit.groebner import (
    PackedReducer,
    buchberger,
    divides,
    ideal_generators,
    pack_exponent,
    unpack_exponent,
)
from aperykit.orders import apery_order, lex_order
from aperykit.sampling import random_corpus

from .test_packed_kernels import random_items

SEED = 4111


def assert_index(reducer, model):
    """``items`` holds exactly ``model`` and every cached list is its rebuild."""
    assert reducer.items == PackedReducer(reducer.m, model).items
    for key, candidates in reducer.by_support.items():
        assert candidates == [(q, t) for q, t, s in reducer.items if s & key == s]


def lowered(rng, q, m):
    """A packed divisor of packed q: each field lowered by a random amount."""
    return pack_exponent([f - rng.randint(0, f) for f in unpack_exponent(q, m)])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_random_appends_and_retires_keep_the_index(m):
    rng = random.Random(SEED + m)
    reducer = PackedReducer(m, [])
    model = []
    retired = 0
    for _ in range(600):
        op = rng.random()
        if op < 0.35 or not model:
            (q, t), = random_items(rng, m, 1)
            reducer.append(q, t)
            model.append((q, t))
        elif op < 0.5:
            u = lowered(rng, rng.choice(model)[0], m)
            if not u:
                continue  # the unit monomial divides every lead
            reducer.retire(u)
            low = unpack_exponent(u, m)
            kept = [(q, t) for q, t in model if not divides(low, unpack_exponent(q, m))]
            retired += len(model) - len(kept)
            model = kept
        else:
            v = pack_exponent([rng.randint(0, 4) for _ in range(m)])
            fresh = PackedReducer(m, model)
            assert reducer.reducible(v) == fresh.reducible(v)
            assert reducer.reduce_packed(v) == fresh.reduce_packed(v)
        assert_index(reducer, model)
    # the walk must exercise both methods on a populated index
    assert retired and len(reducer.by_support) > 1


def test_appends_extend_only_the_lists_that_hold_the_support():
    m = 3
    reducer = PackedReducer(m, [(pack_exponent((2, 0, 0)), 0)])
    for v in ((5, 0, 0), (5, 5, 0), (0, 5, 5), (5, 5, 5)):
        reducer.reducible(pack_exponent(v))
    q = pack_exponent((0, 1, 1))
    reducer.append(q, 0)
    assert_index(reducer, [(pack_exponent((2, 0, 0)), 0), (q, 0)])
    reducer.retire(pack_exponent((1, 0, 0)))
    assert_index(reducer, [(q, 0)])
    assert not reducer.reducible(pack_exponent((5, 5, 0)))
    assert reducer.reduce_packed(pack_exponent((1, 2, 3))) == pack_exponent((1, 0, 1))


def test_buchberger_reducer_holds_exactly_the_basis(monkeypatch):
    """The loop's reducer, its only store of unretired elements, stays indexed."""
    seen = []
    append = PackedReducer.append

    def checked(self, q, t):
        append(self, q, t)
        assert self.items[-1][:2] == (q, t)
        assert_index(self, [(q, t) for q, t, _ in self.items])
        seen.append(self)

    monkeypatch.setattr(PackedReducer, "append", checked)
    for S in random_corpus(SEED, 6, kmin=3, kmax=5, max_gen=60):
        k = len(S.generators)
        for order in (apery_order(k, k, S.generators), lex_order(k + 1)):
            basis = buchberger(ideal_generators(S, order), order)
            reducer = seen[-1]
            assert sorted(q for q, _, _ in reducer.items) == sorted(
                pack_exponent(b.lead) for b in basis.elements
            )
