"""Oracle module: definitions-based invariants and their published values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperykit.errors import NotAMemberError, NotMinimalError
from aperykit.semigroup import (
    NumericalSemigroup,
    apery_bruteforce,
    contains,
    gaps,
    hasse_diagram,
    pf_bruteforce,
    selmer_invariants,
    typeset_bruteforce,
)


def definition_members(gens, bound):
    """Independent membership table, straight from the definition."""
    table = [False] * (bound + 1)
    table[0] = True
    for m in range(1, bound + 1):
        table[m] = any(m >= a and table[m - a] for a in gens)
    return table


def leq_S(S, x, y):
    """The order behind the Hasse diagram: x <=_S y iff y - x is in S."""
    return contains(S, y - x)


def definition_apery(gens, s, bound=5000):
    table = definition_members(gens, bound)
    out = {}
    for m in range(bound + 1):
        if table[m] and m % s not in out:
            out[m % s] = m
        if len(out) == s:
            break
    return sorted(out.values())


@st.composite
def semigroups(draw, kmin=2, kmax=5, max_gen=40):
    k = draw(st.integers(kmin, kmax))
    gens = draw(
        st.lists(st.integers(2, max_gen), min_size=k, max_size=k, unique=True)
    )
    gens.sort()
    try:
        return NumericalSemigroup(gens)
    except ValueError:
        return NumericalSemigroup([2, 2 * draw(st.integers(1, max_gen)) + 1])


class TestConstruction:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([])
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])
        with pytest.raises(ValueError):
            NumericalSemigroup([3, 3, 5])
        with pytest.raises(ValueError):
            NumericalSemigroup([4, 6])  # gcd 2

    def test_rejects_non_minimal_with_distinct_error(self):
        with pytest.raises(NotMinimalError):
            NumericalSemigroup([2, 3, 7])  # 7 = 2 + 2 + 3
        with pytest.raises(NotMinimalError):
            NumericalSemigroup([1, 5])

    def test_whole_numbers_monoid(self):
        S = NumericalSemigroup([1])
        assert gaps(S) == []
        report = selmer_invariants(S, 1)
        assert report.frobenius == -1 and report.genus == 0 and report.symmetric
        assert pf_bruteforce(S) == [-1]


class TestContains:
    def test_published_values(self):
        assert contains(NumericalSemigroup([7, 9, 11]), 26) is False
        assert contains(NumericalSemigroup([7, 9, 11]), 0) is True
        assert contains(NumericalSemigroup([3, 7, 11]), 8) is False

    def test_negative(self):
        assert contains(NumericalSemigroup([2, 3]), -5) is False

    def test_cache_growth_is_consistent(self):
        S = NumericalSemigroup([5, 7, 9])
        small = [contains(S, n) for n in range(20)]
        contains(S, 2000)
        assert [contains(S, n) for n in range(20)] == small


class TestGaps:
    def test_published_gap_sets(self):
        assert gaps(NumericalSemigroup([7, 9, 11])) == [
            1, 2, 3, 4, 5, 6, 8, 10, 12, 13, 15, 17, 19, 24, 26,
        ]
        assert gaps(NumericalSemigroup([7, 8, 9, 13])) == [
            1, 2, 3, 4, 5, 6, 10, 11, 12, 19,
        ]
        assert gaps(NumericalSemigroup([2, 3])) == [1]

    @given(semigroups())
    @settings(max_examples=40, deadline=None)
    def test_gaps_match_membership(self, S):
        gap_list = gaps(S)
        assert all(not contains(S, g) for g in gap_list)
        top = gap_list[-1] if gap_list else -1
        assert all(
            contains(S, n) == (n not in set(gap_list)) for n in range(top + 3)
        )


class TestApery:
    def test_published_values(self):
        S = NumericalSemigroup([7, 9, 11, 15])
        assert apery_bruteforce(S, 7) == [0, 9, 11, 15, 20, 24, 26]
        assert apery_bruteforce(S, 15) == [
            0, 7, 9, 11, 14, 16, 18, 20, 21, 23, 25, 27, 28, 32, 34,
        ]

    def test_derived_value_5_7_9(self):
        # frozen from the definition scan, reproduced independently here
        expected = [0, 5, 7, 10, 12, 15, 17, 20, 22]
        assert definition_apery((5, 7, 9), 9) == expected
        assert apery_bruteforce(NumericalSemigroup([5, 7, 9]), 9) == expected

    def test_rejects_non_members(self):
        S = NumericalSemigroup([7, 9, 11])
        with pytest.raises(NotAMemberError):
            apery_bruteforce(S, 8)
        with pytest.raises(NotAMemberError):
            apery_bruteforce(S, 0)

    @given(semigroups())
    @settings(max_examples=40, deadline=None)
    def test_size_residues_and_lemma(self, S):
        for s in (S.generators[0], S.generators[-1]):
            ap = apery_bruteforce(S, s)
            assert len(ap) == s
            assert 0 in ap
            assert len({w % s for w in ap}) == s
            assert all(contains(S, w) and not contains(S, w - s) for w in ap)

    @given(st.integers(2, 25), st.integers(2, 25))
    @settings(max_examples=40, deadline=None)
    def test_two_generator_formula(self, a, b):
        from math import gcd

        if gcd(a, b) != 1 or a == b:
            return
        lo, hi = min(a, b), max(a, b)
        S = NumericalSemigroup([lo, hi])
        assert apery_bruteforce(S, lo) == sorted(hi * t for t in range(lo))
        assert apery_bruteforce(S, hi) == sorted(lo * t for t in range(hi))


class TestSelmer:
    def test_published_values(self):
        S = NumericalSemigroup([7, 9, 11, 15])
        report = selmer_invariants(S, 7)
        assert report.frobenius == 19 and report.genus == 12
        assert selmer_invariants(NumericalSemigroup([7, 9, 11]), 7).frobenius == 26
        r23 = selmer_invariants(NumericalSemigroup([2, 3]), 2)
        assert r23.frobenius == 1 and r23.genus == 1 and r23.symmetric

    def test_matches_gap_scan_on_corpus(self, small_corpus):
        for S in small_corpus:
            for s in S.generators:
                report = selmer_invariants(S, s)
                gap_list = gaps(S)
                assert report.genus == len(gap_list)
                assert report.frobenius == (gap_list[-1] if gap_list else -1)

    def test_matches_gap_scan_wide_sweep(self):
        from aperykit.sampling import random_corpus

        for S in random_corpus(99, 200, kmin=2, kmax=5, max_gen=60):
            report = selmer_invariants(S, S.generators[0])
            gap_list = gaps(S)
            assert report.genus == len(gap_list)
            assert report.frobenius == gap_list[-1]


class TestPartialOrder:
    def test_examples(self):
        S = NumericalSemigroup([3, 7, 11])
        assert leq_S(S, 7, 10) is True
        assert leq_S(S, 5, 5) is True
        assert leq_S(S, 15, 19) is False  # 4 is not a member

    @given(semigroups(), st.integers(-10, 60), st.integers(-10, 60))
    @settings(max_examples=40, deadline=None)
    def test_reflexive_and_matches_membership(self, S, x, y):
        assert leq_S(S, x, x)
        table = definition_members(S.generators, 70)
        assert leq_S(S, x, y) == (y >= x and table[y - x])


class TestPseudoFrobenius:
    def test_published_values(self):
        assert pf_bruteforce(NumericalSemigroup([3, 7, 11])) == [4, 8]
        assert pf_bruteforce(NumericalSemigroup([2, 3])) == [1]

    def test_derived_7_8_9_13(self):
        # frozen: the only gap surviving the defining condition is 19
        gens = (7, 8, 9, 13)
        table = definition_members(gens, 200)
        expected = [
            x
            for x in range(1, 20)
            if not table[x] and all(table[x + a] for a in gens)
        ]
        assert expected == [19]
        assert pf_bruteforce(NumericalSemigroup(gens)) == [19]

    def test_relations_on_corpus(self, small_corpus):
        for S in small_corpus:
            pf = pf_bruteforce(S)
            ts = typeset_bruteforce(S)
            ak = S.generators[-1]
            assert pf == [m - ak for m in ts]
            assert max(pf) == selmer_invariants(S, S.generators[0]).frobenius
            report = selmer_invariants(S, S.generators[0])
            assert (len(ts) == 1) == report.symmetric
            if len(S.generators) == 2:
                assert report.symmetric


class TestTypeset:
    def test_published_values(self):
        assert typeset_bruteforce(NumericalSemigroup([3, 7, 11])) == [15, 19]
        assert typeset_bruteforce(NumericalSemigroup([7, 8, 9, 13])) == [32]
        # Sylvester: two-generator monoids are symmetric, T = {f + a_2}
        assert typeset_bruteforce(NumericalSemigroup([2, 3])) == [4]

    def test_equals_maximal_apery_elements(self, small_corpus):
        for S in small_corpus:
            ak = S.generators[-1]
            ap = apery_bruteforce(S, ak)
            maximal = [
                m
                for m in ap
                if not any(n != m and leq_S(S, m, n) for n in ap)
            ]
            assert typeset_bruteforce(S) == maximal


class TestScanGuard:
    def test_env_cap_trips_pathological_scans(self, monkeypatch):
        from aperykit.errors import ScanLimitError

        monkeypatch.setenv("APERYKIT_MAX_SCAN", "50")
        S = NumericalSemigroup([51, 52, 53])
        with pytest.raises(ScanLimitError):
            gaps(S)

    def test_env_cap_validation(self, monkeypatch):
        from aperykit.semigroup import max_scan_limit

        monkeypatch.setenv("APERYKIT_MAX_SCAN", "zero")
        with pytest.raises(ValueError):
            max_scan_limit()
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "-3")
        with pytest.raises(ValueError):
            max_scan_limit()
        monkeypatch.delenv("APERYKIT_MAX_SCAN")
        assert max_scan_limit() == 10**7


class TestHasse:
    DIAGRAM_3_7_11 = [
        (0, 3), (0, 7), (3, 6), (3, 10), (6, 9), (6, 13), (7, 10),
        (9, 12), (9, 16), (10, 13), (12, 15), (12, 19), (13, 16), (16, 19),
    ]

    def test_published_diagram(self):
        S = NumericalSemigroup([3, 7, 11])
        edges = hasse_diagram(S, 11)
        assert edges == self.DIAGRAM_3_7_11
        sinks = sorted(set(apery_bruteforce(S, 11)) - {x for x, _ in edges})
        assert sinks == [15, 19]

    def test_sinks_are_typeset(self, small_corpus):
        for S in small_corpus:
            ak = S.generators[-1]
            edges = hasse_diagram(S, ak)
            nodes = apery_bruteforce(S, ak)
            sinks = sorted(set(nodes) - {x for x, _ in edges})
            assert sinks == typeset_bruteforce(S)

    def test_trivial_singleton(self):
        edges = hasse_diagram(NumericalSemigroup([1]), 1)
        assert edges == []

    def test_edges_are_covering(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        edges = hasse_diagram(S, 13)
        nodes = apery_bruteforce(S, 13)
        sinks = sorted(set(nodes) - {x for x, _ in edges})
        assert sinks == [32]
        for x, y in edges:
            assert leq_S(S, x, y)
            assert not any(
                z not in (x, y) and leq_S(S, x, z) and leq_S(S, z, y) for z in nodes
            )
