"""The oracle's Apery scan, its invariants and its Hasse diagram against
references that share no code with it.

Apery sets are checked against Nijenhuis' shortest paths on cold and warm
tables, for every generator and for members that are not generators; the
Hasse diagram against a transitive reduction of the whole order on Ap(S, s).
"""

import random

import pytest

from aperykit import semigroup as sg
from aperykit.sampling import random_semigroup

from .test_oracle_table import nijenhuis_apery


def seeded_monoids(seed, max_gen, count_per_k=3):
    rng = random.Random(seed)
    return [
        random_semigroup(rng, k, k, max_gen).generators
        for k in range(2, 7)
        for _ in range(count_per_k)
    ]


def reference(gens):
    """Membership test and the three non-generator members each case uses."""
    a1 = gens[0]
    floor = nijenhuis_apery(gens, a1)

    def member(x):
        return x >= 0 and x >= floor[x % a1]

    rng = random.Random(repr(gens))
    others = [x for x in range(a1 + 1, 3 * gens[-1]) if member(x) and x not in gens]
    return member, sorted(rng.sample(others, 3))


MONOIDS = seeded_monoids(11, 500)


@pytest.mark.parametrize("gens", MONOIDS, ids=str)
class TestAperyAgainstShortestPaths:
    def test_cold_and_warm_tables(self, gens):
        member, others = reference(gens)
        targets = list(gens) + others
        expected = {s: sorted(nijenhuis_apery(gens, s)) for s in targets}
        for s in targets:
            assert sg.apery_bruteforce(sg.NumericalSemigroup(gens), s) == expected[s], s
        # one monoid for every scan, largest target first and then after a
        # membership test far past every Apery set, so later scans start warm
        warm = sg.NumericalSemigroup(gens)
        for s in sorted(targets, reverse=True):
            assert sg.apery_bruteforce(warm, s) == expected[s], s
        assert sg.contains(warm, 4 * max(max(v) for v in expected.values()))
        for s in targets:
            assert sg.apery_bruteforce(warm, s) == expected[s], s
        # a table ending one entry short of max Ap(S, s) must still grow
        for s in targets:
            short = sg.NumericalSemigroup(gens)
            sg.contains(short, max(expected[s]) - 1)
            assert sg.apery_bruteforce(short, s) == expected[s], s

    def test_selmer_and_typeset(self, gens):
        member, others = reference(gens)
        a1 = gens[0]
        frobenius = max(nijenhuis_apery(gens, a1)) - a1
        gap_list = [x for x in range(1, frobenius + 1) if not member(x)]
        for s in list(gens) + others:
            report = sg.selmer_invariants(sg.NumericalSemigroup(gens), s)
            assert report.frobenius == frobenius
            assert report.genus == len(gap_list)
            assert list(report.gaps) == gap_list
            assert report.symmetric == (2 * len(gap_list) == frobenius + 1)
        ap = set(nijenhuis_apery(gens, gens[-1]))
        type_set = sorted(m for m in ap if not any(m + a in ap for a in gens))
        assert sg.typeset_bruteforce(sg.NumericalSemigroup(gens)) == type_set


def transitive_reduction(nodes, member):
    """Covers of x <= y iff y - x in S on ``nodes``, from the whole order."""
    above = {x: {y for y in nodes if y > x and member(y - x)} for x in nodes}
    covers = []
    for x in nodes:
        implied = set().union(*(above[z] for z in above[x]))
        covers += [(x, y) for y in sorted(above[x] - implied)]
    return sorted(covers)


@pytest.mark.parametrize("gens", seeded_monoids(12, 90), ids=str)
def test_hasse_is_the_transitive_reduction(gens):
    member, others = reference(gens)
    S = sg.NumericalSemigroup(gens)
    for s in (gens[-1], others[0]):
        nodes = sorted(nijenhuis_apery(gens, s))
        edges = sg.hasse_diagram(S, s)
        assert edges == transitive_reduction(nodes, member), s
        if s == gens[-1]:
            sinks = sorted(set(nodes) - {x for x, _ in edges})
            assert sinks == sg.typeset_bruteforce(S)
