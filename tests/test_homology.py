"""Homology route: complexes from membership, exact ranks, PF detection."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from aperykit import homology
from aperykit.errors import ScanLimitError
from aperykit.homology import (
    Face,
    SimplicialComplex,
    _rank_exact,
    build_delta,
    pf_via_homology,
    reduced_homology_ranks,
)
from aperykit.sampling import random_semigroup
from aperykit.semigroup import NumericalSemigroup, contains, gaps, pf_bruteforce


def complex_from(faces, k):
    return SimplicialComplex.from_faces(k, faces)


def full_simplex(k):
    return [c for r in range(k + 1) for c in combinations(range(1, k + 1), r)]


class TestBuildDelta:
    def test_boundary_of_simplex_at_pf_witness(self):
        # 25 = 4 + 3 + 7 + 11 with 4 pseudo-Frobenius: every proper subset
        # passes the membership test, the full one does not
        S = NumericalSemigroup([3, 7, 11])
        D = build_delta(S, 25)
        assert Face((1, 2, 3)) not in D.faces
        assert len(D.faces) == 7
        for i in range(1, 4):
            gens_sum = 25 - sum(S.generators[j - 1] for j in (i,))
            assert contains(S, gens_sum)

    def test_zero_gives_only_the_empty_face(self):
        S = NumericalSemigroup([3, 7, 11])
        assert build_delta(S, 0).faces == frozenset([Face(())])

    def test_large_values_give_the_full_simplex(self):
        S = NumericalSemigroup([3, 7, 11])
        a = 26 + sum(S.generators) + 1  # past the Frobenius number plus all generators
        assert build_delta(S, a).faces == frozenset(Face(f) for f in full_simplex(3))

    def test_membership_rule_exactly(self):
        S = NumericalSemigroup([5, 7, 9])
        for a in (0, 9, 23, 40):
            D = build_delta(S, a)
            for r in range(4):
                for combo in combinations((1, 2, 3), r):
                    rest = a - sum(S.generators[i - 1] for i in combo)
                    assert (Face(combo) in D.faces) == contains(S, rest)

    def test_gather_matches_the_per_face_definition(self):
        # every a from 0 past F + T + a_1, a < T included (the window is
        # padded below 0); each monoid starts with a fresh table, so the
        # route grows it itself
        rng = random.Random(20241021)
        checked = below = 0
        for k in range(2, 8):
            for _ in range(3):
                gens = random_semigroup(rng, k, k, rng.choice((3 * k, 8 * k))).generators
                S, oracle = NumericalSemigroup(gens), NumericalSemigroup(gens)
                total = sum(gens)
                frobenius = max(gaps(oracle), default=-1)
                for a in range(frobenius + total + gens[0] + 1):
                    expected = sum(
                        1 << m
                        for m in range(1 << k)
                        if contains(oracle, a - sum(g for i, g in enumerate(gens) if m >> i & 1))
                    )
                    assert build_delta(S, a).bits == expected, (gens, a)
                    checked += 1
                    below += a < total
        assert below and checked > below

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_delta(NumericalSemigroup([3, 7, 11]), -1)

    def test_own_budget(self, monkeypatch):
        S = NumericalSemigroup([3, 7, 11])  # 2^3 faces per complex
        build_delta(S, 25)  # the table now holds 25, so only the face budget can trip
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "7")
        with pytest.raises(ScanLimitError):
            build_delta(S, 25)
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "8")
        assert len(build_delta(S, 25).faces) == 7


class TestRanks:
    def test_circle(self):
        faces = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
        assert reduced_homology_ranks(complex_from(faces, 3)) == (0, 0, 1, 0)

    def test_contractible(self):
        assert reduced_homology_ranks(complex_from(full_simplex(3), 3)) == (0, 0, 0, 0)

    def test_two_points(self):
        faces = [(), (1,), (2,)]
        assert reduced_homology_ranks(complex_from(faces, 2)) == (0, 1, 0)

    def test_empty_face_only(self):
        assert reduced_homology_ranks(complex_from([()], 2)) == (1, 0, 0)

    def test_void_complex(self):
        assert reduced_homology_ranks(complex_from([], 2)) == (0, 0, 0)

    def test_two_sphere(self):
        faces = [c for f in combinations((1, 2, 3, 4), 3) for c in _downward(f)]
        ranks = reduced_homology_ranks(complex_from(faces, 4))
        assert ranks == (0, 0, 0, 1, 0)

    def test_rejects_non_closed_family(self):
        with pytest.raises(ValueError):
            reduced_homology_ranks(complex_from([(), (1, 2)], 2))

    def test_euler_characteristic_consistency(self, small_corpus):
        for S in small_corpus[:6]:
            total = sum(S.generators)
            for a in (total, total + S.generators[0], total + 1):
                D = build_delta(S, a)
                if not D.faces:
                    continue
                ranks = reduced_homology_ranks(D)
                # reduced Euler characteristic: the empty face sits in
                # degree -1 and contributes -1
                euler = sum((-1) ** (len(f) + 1) for f in D.faces)
                alt_ranks = sum(
                    (-1) ** (i + 2) * r for i, r in enumerate(ranks, start=-1)
                )
                assert euler == alt_ranks


def _downward(face):
    out = []
    for r in range(len(face) + 1):
        out.extend(combinations(face, r))
    return out


class TestPfViaHomology:
    def test_published_values(self):
        assert pf_via_homology(NumericalSemigroup([3, 7, 11])) == [4, 8]
        assert pf_via_homology(NumericalSemigroup([7, 8, 9, 13])) == [19]
        assert pf_via_homology(NumericalSemigroup([2, 3])) == [1]

    def test_sphere_shape_at_pf_elements(self):
        S = NumericalSemigroup([7, 9, 11, 15])
        k = 4
        total = sum(S.generators)
        for a in pf_bruteforce(S):
            D = build_delta(S, a + total)
            # the complex is the boundary of the (k-1)-simplex on the nose
            expected = set(full_simplex(k)) - {tuple(range(1, k + 1))}
            assert D.faces == frozenset(Face(f) for f in expected)

    def test_matches_oracle(self, small_corpus):
        for S in small_corpus[:12]:
            assert pf_via_homology(S) == pf_bruteforce(S)

    def test_requires_k_at_least_2(self):
        with pytest.raises(ValueError):
            pf_via_homology(NumericalSemigroup([1]))


def fraction_rank(rows):
    """Textbook Gaussian elimination over Q, the reference for _rank_exact."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestRankKernel:
    def test_matches_fraction_elimination(self):
        rng = random.Random(20240917)
        for _ in range(400):
            n_rows, n_cols = rng.randint(0, 7), rng.randint(1, 7)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n_cols)]
                    for _ in range(n_rows)]
            if rows and rng.random() < 0.3:  # a zero column
                c = rng.randrange(n_cols)
                for row in rows:
                    row[c] = 0
            if rows and rng.random() < 0.3:  # a zero row
                rows[rng.randrange(n_rows)] = [0] * n_cols
            if len(rows) >= 2 and rng.random() < 0.5:  # a dependent row
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
            assert _rank_exact(rows) == fraction_rank(rows), rows

    def test_fixed_cases(self):
        assert _rank_exact([]) == 0
        assert _rank_exact([[0, 0], [0, 0]]) == 0
        assert _rank_exact([[2, 4], [3, 6]]) == 1
        assert _rank_exact([[0, 6], [4, 0], [2, 3]]) == 2
        assert _rank_exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def seeded_monoids():
    rng = random.Random(20240917 + 7)
    bands = {5: 30, 6: 24, 7: 20}
    return [random_semigroup(rng, k, k, bands[k]) for k in (5, 6, 7) for _ in range(3)]


class TestEulerPretest:
    def test_rejected_gaps_are_not_spheres(self):
        rejected = 0
        for S in seeded_monoids():
            k = len(S.generators)
            sphere = tuple(1 if i == k - 1 else 0 for i in range(k + 1))
            for x in gaps(S):
                D = build_delta(S, x + sum(S.generators))
                euler = sum((-1) ** (len(f) - 1) for f in D.faces)
                if euler != (-1) ** (k - 2):
                    rejected += 1
                    assert reduced_homology_ranks(D) != sphere, (S, x)
        assert rejected

    def test_matches_bruteforce(self):
        for S in seeded_monoids():
            assert pf_via_homology(S) == pf_bruteforce(S)

    def test_route_builds_every_complex_through_the_public_functions(self, monkeypatch):
        # one build_delta per gap; reduced_homology_ranks only past the pre-test
        built, ranked = [], []
        real_build, real_ranks = homology.build_delta, homology.reduced_homology_ranks
        monkeypatch.setattr(
            homology,
            "build_delta",
            lambda S, a, **kw: built.append(a) or real_build(S, a, **kw),
        )
        monkeypatch.setattr(
            homology, "reduced_homology_ranks", lambda C: ranked.append(C) or real_ranks(C)
        )
        S = NumericalSemigroup([3, 5, 7])
        assert pf_via_homology(S) == [2, 4]
        assert built == [x + 15 for x in gaps(S)]
        assert 2 <= len(ranked) < len(built)  # gap 1 fails the Euler pre-test

    def test_closure_checked_on_rejected_complexes(self, monkeypatch):
        # <2,3>, gap 1, a = 6: drop face {1} (6 - 2) and add {1,2} (6 - 5);
        # the Euler sum is -1, not the sphere's 1, so only closure catches it
        real = homology.membership_window

        def corrupted(S, lo, hi):
            window = bytearray(real(S, lo, hi))
            window[4 - lo], window[1 - lo] = 0, 1
            return bytes(window)

        monkeypatch.setattr(homology, "membership_window", corrupted)
        with pytest.raises(ValueError, match="downward closed"):
            pf_via_homology(NumericalSemigroup([2, 3]))


class TestBudget:
    def test_scan_limit_covers_the_route(self, monkeypatch):
        S = NumericalSemigroup([5, 7, 9])  # genus 8: 8 x 2^3 = 64 tests
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "63")
        with pytest.raises(ScanLimitError):
            pf_via_homology(S)
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "64")
        assert pf_via_homology(S) == pf_bruteforce(S)

    def test_budget_checked_before_any_complex(self, monkeypatch):
        calls = []
        monkeypatch.setattr(homology, "contains", lambda *a: calls.append(a))
        monkeypatch.setattr(homology, "membership_window", lambda *a: calls.append(a))
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "100")  # genus 23 x 2^5 = 736
        with pytest.raises(ScanLimitError):
            pf_via_homology(NumericalSemigroup([11, 13, 15, 17, 19]))
        assert calls == []


def direct_ranks(faces, k):
    """Reduced homology ranks from the direct boundary matrices, by fraction_rank."""
    by_size = [sorted(f for f in faces if len(f) == s) for s in range(k + 1)]
    boundary = [0] * (k + 2)
    for s in range(1, k + 1):
        index = {f: i for i, f in enumerate(by_size[s - 1])}
        rows = []
        for f in by_size[s]:
            row = [0] * len(index)
            for i in range(s):
                row[index[f[:i] + f[i + 1:]]] = (-1) ** i
            rows.append(row)
        boundary[s] = fraction_rank(rows)
    return tuple(len(by_size[s]) - boundary[s] - boundary[s + 1] for s in range(k + 1))


def random_closed_family(rng, k, dense):
    """Downward closure of a few random facets, or (dense) the family of
    complements of the sets outside such a closure, which is downward closed."""
    sizes = [rng.randint(1, max(1, k - 1)) for _ in range(rng.randint(0, k + 1))]
    facets = [rng.sample(range(1, k + 1), size) for size in sizes]
    faces = {c for f in facets for c in _downward(tuple(sorted(f)))}
    if not dense:
        return faces
    ground = set(range(1, k + 1))
    return {tuple(sorted(ground - set(f))) for f in full_simplex(k) if f not in faces}


class TestAlexanderDual:
    def test_matches_direct_boundary_ranks(self):
        rng = random.Random(20241020)
        seen = {False: 0, True: 0}  # holding more than half of the faces, with homology
        for _ in range(500):
            k = rng.randint(1, 7)
            faces = random_closed_family(rng, k, rng.random() < 0.5)
            ranks = reduced_homology_ranks(complex_from(faces, k))
            assert ranks == direct_ranks(faces, k), (k, faces)
            if any(ranks):
                seen[2 * len(faces) > 1 << k] += 1
        assert min(seen.values()) >= 30  # both branches meet nonzero homology

    def test_zero_vertices(self):
        assert reduced_homology_ranks(SimplicialComplex(0, 0)) == (0,)
        assert reduced_homology_ranks(SimplicialComplex(0, 1)) == (1,)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_void_point_and_full_simplex(self, k):
        zeros = (0,) * (k + 1)
        assert reduced_homology_ranks(complex_from([], k)) == zeros
        assert reduced_homology_ranks(complex_from([()], k)) == (1,) + zeros[1:]
        assert reduced_homology_ranks(complex_from(full_simplex(k), k)) == zeros

    @pytest.mark.parametrize("k", range(2, 8))
    def test_boundary_of_simplex_is_a_sphere(self, k):
        faces = full_simplex(k)[:-1]  # every face but [k] itself
        sphere = tuple(1 if i == k - 1 else 0 for i in range(k + 1))
        assert reduced_homology_ranks(complex_from(faces, k)) == sphere

    def test_faces_round_trip(self):
        faces = [(), (1,), (3,), (1, 3)]
        assert complex_from(faces, 3).faces == frozenset(Face(f) for f in faces)

    def test_rejects_vertices_outside_the_ground_set(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            complex_from([(), (3,)], 2)
        with pytest.raises(ValueError, match="past 2"):
            reduced_homology_ranks(SimplicialComplex(2, 1 << 4))


def test_dense_complexes_stay_fast(monkeypatch):
    # <12, ..., 23>: genus 11, and the complexes that pass the Euler pre-test
    # hold most of their 4 096 faces, so they are ranked through the dual;
    # ranked directly, their boundary maps would reach 924 rows
    rows_seen = []
    real = homology._rank_exact
    monkeypatch.setattr(
        homology, "_rank_exact", lambda rows: rows_seen.append(len(rows)) or real(rows)
    )
    S = NumericalSemigroup(range(12, 24))
    assert pf_via_homology(S) == pf_bruteforce(S)
    assert rows_seen and max(rows_seen) < 100
