"""The oracle's bitset membership table and the scans that read it in place.

The table is checked against a per-integer dynamic programme, the scans
against Nijenhuis' shortest-path Apery set, and the scan guard against the
same scans written as one ``contains`` call per integer.
"""

import heapq
import random

import pytest

from aperykit import semigroup as sg
from aperykit.errors import ScanLimitError
from aperykit.sampling import random_semigroup


def dp_table(generators, size):
    """t[m] = 1 iff m is a Z>=0-combination of generators, one m at a time."""
    table = bytearray(size)
    table[0] = 1
    for m in range(1, size):
        table[m] = any(m >= a and table[m - a] for a in generators)
    return table


def nijenhuis_apery(gens, s):
    """Ap(S, s) by residue, as shortest paths from 0 in Z/s (edges add a generator)."""
    dist = [None] * s
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a in gens:
            nd = d + a
            if dist[nd % s] is None or nd < dist[nd % s]:
                dist[nd % s] = nd
                heapq.heappush(heap, (nd, nd % s))
    return dist


def seeded_monoids():
    rng = random.Random(5)
    out = [sg.NumericalSemigroup([1])]
    for k in range(2, 7):
        out += [random_semigroup(rng, k, k, 12 * k) for _ in range(6)]
    return out


class TestBitsetTable:
    def test_matches_per_integer_dp(self):
        rng = random.Random(20240917)
        for trial in range(120):
            k = 1 + trial % 6
            gens = sorted(rng.sample(range(1, 300), k))
            sizes = {1, 2, gens[0] - 1, gens[0], 63, 64, 65, rng.randint(1, 5000)}
            for size in sorted(n for n in sizes if n >= 1):
                assert sg._membership_table(gens, size) == dp_table(gens, size), (gens, size)

    def test_generators_beyond_the_table(self):
        assert sg._membership_table([70, 90], 65) == dp_table([70, 90], 65)
        assert sg._membership_table([3], 1) == bytearray([1])

    def test_returns_a_mutable_zero_one_table(self):
        table = sg._membership_table([3, 5], 16)
        assert isinstance(table, bytearray)
        assert set(table) == {0, 1}


class TestScansAgainstShortestPaths:
    @pytest.mark.parametrize("S", seeded_monoids(), ids=lambda S: str(S.generators))
    def test_gaps_apery_and_pf(self, S):
        gens = S.generators
        a1 = gens[0]
        floor = nijenhuis_apery(gens, a1)
        top = max(floor)

        def member(x):
            return x >= 0 and x >= floor[x % a1]

        expected_gaps = [x for x in range(1, top) if not member(x)]
        assert sg.gaps(sg.NumericalSemigroup(gens)) == expected_gaps
        for a in gens:
            assert sg.apery_bruteforce(sg.NumericalSemigroup(gens), a) == sorted(
                nijenhuis_apery(gens, a)
            )
        expected_pf = [x for x in expected_gaps if all(member(x + a) for a in gens)]
        assert sg.pf_bruteforce(sg.NumericalSemigroup(gens)) == (expected_pf or [-1])
        # every scan on one monoid, so each starts from a warm table
        assert [sg.contains(S, x) for x in range(top + 2)] == [
            member(x) for x in range(top + 2)
        ]
        assert sg.gaps(S) == expected_gaps
        assert sg.apery_bruteforce(S, gens[-1]) == sorted(nijenhuis_apery(gens, gens[-1]))


def per_integer_gaps(S):
    a1 = S.generators[0]
    out, run, m, limit = [], 0, 0, sg.max_scan_limit()
    while run < a1:
        m += 1
        if m > limit:
            raise ScanLimitError("gap scan")
        if sg.contains(S, m):
            run += 1
        else:
            run = 0
            out.append(m)
    return out


def per_integer_apery(S, s):
    if not sg.contains(S, s):
        raise ValueError("not a member")
    found, m, limit = {}, 0, sg.max_scan_limit()
    while len(found) < s:
        if m > limit:
            raise ScanLimitError("Apery scan")
        if sg.contains(S, m):
            found.setdefault(m % s, m)
        m += 1
    return sorted(found.values())


def per_integer_pf(S):
    gap_list = per_integer_gaps(S)
    if not gap_list:
        return [-1]
    return [x for x in gap_list if all(sg.contains(S, x + a) for a in S.generators)]


def outcome(fn, gens, *args):
    """The result of fn on a fresh monoid, or the ScanLimitError it raised."""
    try:
        return fn(sg.NumericalSemigroup(gens), *args)
    except ScanLimitError:
        return ScanLimitError


def warm_outcome(scans, gens):
    """The scans in turn on one monoid, as ``analyze`` runs them."""
    S = sg.NumericalSemigroup(gens)
    out = []
    for fn, *args in scans:
        try:
            out.append(fn(S, *args))
        except ScanLimitError:
            out.append(ScanLimitError)
    return out


class TestScanGuard:
    @pytest.mark.parametrize("gens", [(3, 5, 7), (5, 7), (4, 6, 9), (7, 8, 9, 13), (11, 13, 31)])
    def test_raises_at_the_same_inputs_as_per_integer_scans(self, gens, monkeypatch):
        top = max(nijenhuis_apery(gens, gens[-1]))
        for limit in range(1, top + 2 * gens[-1] + 3):
            monkeypatch.setenv("APERYKIT_MAX_SCAN", str(limit))
            assert outcome(sg.gaps, gens) == outcome(per_integer_gaps, gens), limit
            assert outcome(sg.pf_bruteforce, gens) == outcome(per_integer_pf, gens), limit
            for a in gens:
                assert outcome(sg.apery_bruteforce, gens, a) == outcome(
                    per_integer_apery, gens, a
                ), (limit, a)
            ours = [(sg.apery_bruteforce, gens[0]), (sg.gaps,), (sg.apery_bruteforce, gens[-1])]
            ref = [(per_integer_apery, gens[0]), (per_integer_gaps,), (per_integer_apery, gens[-1])]
            assert warm_outcome(ours, gens) == warm_outcome(ref, gens), limit

    def test_guard_trips_somewhere_in_the_window(self, monkeypatch):
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "5")
        with pytest.raises(ScanLimitError):
            sg.gaps(sg.NumericalSemigroup([7, 8, 9, 13]))
        with pytest.raises(ScanLimitError):
            sg.apery_bruteforce(sg.NumericalSemigroup([3, 5, 7]), 7)


class TestMembershipWindow:
    def test_matches_contains_from_a_fresh_table(self):
        rng = random.Random(20241021)
        for S in seeded_monoids():
            top = 4 * S.generators[-1]
            for _ in range(20):
                hi = rng.randint(-5, top)
                lo = hi - rng.randint(-1, top)  # an empty window when lo = hi + 1
                window = sg.membership_window(sg.NumericalSemigroup(S.generators), lo, hi)
                expected = bytes(sg.contains(S, n) for n in range(lo, hi + 1))
                assert window == expected, (S, lo, hi)

    def test_guard_trips_where_contains_does(self, monkeypatch):
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "40")
        gens = (7, 8, 9, 13)
        tripped = []
        for hi in range(30, 50):
            raised = outcome(sg.membership_window, gens, hi - 20, hi) is ScanLimitError
            assert raised == (outcome(sg.contains, gens, hi) is ScanLimitError), hi
            tripped.append(raised)
        assert any(tripped) and not all(tripped)
