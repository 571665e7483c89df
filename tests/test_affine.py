"""Affine engine: cone certificates, block-order Apery sets, BFS oracle."""

import random

import pytest

from aperykit.affine import (
    AffineMonoid,
    affine_members_bruteforce,
    apery_affine,
    validate_lambda,
)
from aperykit.errors import ConeMismatchError
from aperykit.semigroup import apery_bruteforce


def graded_degree(v, d, reordered):
    """Z^d degree of a monomial: x contributes itself, y_p contributes a_p."""
    total = list(v[:d])
    for p, a in enumerate(reordered):
        for c in range(d):
            total[c] += v[d + p] * a[c]
    return tuple(total)


class TestAffineMonoid:
    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            AffineMonoid(2, ((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            AffineMonoid(2, ((1, -1),))
        with pytest.raises(ValueError):
            AffineMonoid(2, ((1, 0), (1, 0)))
        with pytest.raises(ValueError):
            AffineMonoid(2, ((1,),))


class TestValidateLambda:
    def test_one_dimensional_certificates(self):
        M = AffineMonoid(1, ((7,), (9,), (11,)))
        lam = validate_lambda(M, (1,))
        u, v = lam.certificates[0]
        assert u * 7 == v[0] * 9
        u2, v2 = lam.certificates[2]
        assert u2 * 11 == v2[0] * 9

    def test_derived_two_dimensional_identity(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        lam = validate_lambda(M, (0, 2))
        u, v = lam.certificates[1]
        # 2 * (1,1) = (2,0) + (0,2), the by-hand identity
        assert u == 2 and v == (1, 1)
        assert lam.reordered == ((1, 1), (2, 0), (0, 2))

    def test_cone_mismatch(self):
        M = AffineMonoid(2, ((1, 0), (1, 1)))
        with pytest.raises(ConeMismatchError) as err:
            validate_lambda(M, (1,))
        assert err.value.generator == (1, 0)

    def test_rejects_empty_or_bad_indices(self):
        M = AffineMonoid(1, ((2,), (3,)))
        with pytest.raises(ValueError):
            validate_lambda(M, ())
        with pytest.raises(ValueError):
            validate_lambda(M, (5,))

    def test_fractional_witness_is_cleared(self):
        # (2,2) = (3,1)/2 + (1,3)/2, so the certificate doubles
        M = AffineMonoid(2, ((3, 1), (1, 3), (2, 2)))
        lam = validate_lambda(M, (0, 1))
        u, v = lam.certificates[2]
        assert (u, v) == (2, (1, 1))

    def test_mismatch_inside_a_two_ray_cone(self):
        # (1,0) falls outside the cone spanned by slopes 1/2 and 2
        M = AffineMonoid(2, ((2, 1), (1, 2), (1, 0)))
        with pytest.raises(ConeMismatchError) as err:
            validate_lambda(M, (0, 1))
        assert err.value.generator == (1, 0)


class TestAperyAffine:
    def test_derived_two_dimensional_example(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        report = apery_affine(M, indices=(0, 2))
        assert report.elements == ((0, 0), (1, 1))
        members = affine_members_bruteforce(M, 10)
        for a in report.elements:
            assert a in members
            for b in ((2, 0), (0, 2)):
                diff = tuple(x - y for x, y in zip(a, b))
                assert any(c < 0 for c in diff) or diff not in members

    def test_lambda_all_gives_origin_for_free_monoid(self):
        M = AffineMonoid(2, ((1, 0), (0, 1)))
        report = apery_affine(M, indices=(0, 1))
        assert report.elements == ((0, 0),)

    def test_d1_reduction_matches_numerical_apery(self, small_corpus):
        for S in small_corpus[:8]:
            M = AffineMonoid(1, tuple((a,) for a in S.generators))
            for j in range(len(S.generators)):
                report = apery_affine(M, indices=(j,))
                got = sorted(p[0] for p in report.elements)
                assert got == apery_bruteforce(S, S.generators[j])

    def test_degree_conservation(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        lam = validate_lambda(M, (0, 2))
        report = apery_affine(M, lam)
        for point, rep in report.representations.items():
            assert graded_degree(rep, 2, lam.reordered) == point

    def test_rejects_a_lambda_certified_for_another_monoid(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        N = AffineMonoid(2, ((3, 0), (1, 1), (0, 3)))
        with pytest.raises(ValueError, match="another monoid"):
            apery_affine(M, validate_lambda(N, (0, 2)))
        assert apery_affine(M, validate_lambda(M, (0, 2))).elements == ((0, 0), (1, 1))

    def test_larger_two_dimensional_case_against_oracle(self):
        M = AffineMonoid(2, ((3, 0), (2, 1), (1, 2), (0, 3)))
        lam = validate_lambda(M, (0, 3))
        report = apery_affine(M, lam)
        members = affine_members_bruteforce(M, 18)
        lam_gens = [(3, 0), (0, 3)]
        expected = sorted(
            a
            for a in members
            if sum(a) <= 12
            and all(
                any(c < 0 for c in (x - y for x, y in zip(a, b)))
                or tuple(x - y for x, y in zip(a, b)) not in members
                for b in lam_gens
            )
        )
        got = sorted(p for p in report.elements if sum(p) <= 12)
        assert got == expected


class TestBruteforce:
    def test_single_axis(self):
        M = AffineMonoid(1, ((1,),))
        assert affine_members_bruteforce(M, 3) == {(0,), (1,), (2,), (3,)}

    def test_contains_double_witness_point(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        members = affine_members_bruteforce(M, 4)
        assert (2, 2) in members

    def test_random_points_decompose(self):
        rng = random.Random(3)
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        members = affine_members_bruteforce(M, 12)
        for _ in range(50):
            p = (rng.randint(0, 6), rng.randint(0, 6))
            expected = sum(p) % 2 == 0  # this monoid is the even-sum lattice points
            assert (p in members) == expected
