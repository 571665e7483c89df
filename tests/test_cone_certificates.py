"""Integer cone certificates of validate_lambda against independent checks.

Lambda is drawn at random in d = 1, 2, 3: square, non-square (d+1 or d+2
generators) and rank-deficient (collinear generators).  Every certificate
is checked as an identity; in d = 1, 2 the mismatch decision is compared
with a slope test in integer cross products; in d = 3 with 4-5 Lambda
generators the Apery set is compared with the definition.
"""

import json
import random

import pytest

from aperykit.affine import (
    AffineMonoid,
    affine_members_bruteforce,
    apery_affine,
    validate_lambda,
)
from aperykit.cli import main
from aperykit.errors import ConeMismatchError, ScanLimitError

SEED = 20261019


def random_monoid(rng, d, lam_size, collinear=False):
    """A random pointed monoid in Z^d and a random Lambda of lam_size of its generators."""
    gens = set()
    size = lam_size + rng.randint(1, 3)
    top = 4 if d > 1 else 12
    while len(gens) < size:
        if collinear and gens and rng.random() < 0.5:
            g = tuple(x * rng.randint(2, 3) for x in rng.choice(sorted(gens)))
        else:
            g = tuple(rng.randint(0, top) for _ in range(d))
        if any(g):
            gens.add(g)
    M = AffineMonoid(d, tuple(sorted(gens)))
    return M, rng.sample(range(size), lam_size)


def draws(count):
    rng = random.Random(SEED)
    for n in range(count):
        d = (1, 2, 3)[n % 3]
        lam_size = rng.randint(d, d + 2)
        yield random_monoid(rng, d, lam_size, collinear=n % 4 == 0)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def outside_by_slopes(M, indices):
    """The first non-Lambda generator outside cone(Lambda), or None (d = 1, 2).

    In the closed first quadrant the angle order is the cross-product order,
    so cone(Lambda) is the wedge between its extreme-slope generators.
    """
    if M.dim == 1:
        return None
    lam = [M.generators[i] for i in indices]
    low = next(a for a in lam if all(cross(a, b) >= 0 for b in lam))
    high = next(a for a in lam if all(cross(b, a) >= 0 for b in lam))
    for j, g in enumerate(M.generators):
        if j not in indices and (cross(low, g) < 0 or cross(g, high) < 0):
            return g
    return None


def test_certificates_are_integer_identities():
    certified = 0
    for M, indices in draws(600):
        try:
            lam = validate_lambda(M, indices)
        except ConeMismatchError:
            continue
        lam_gens = [M.generators[i] for i in lam.indices]
        assert set(lam.certificates) == set(range(len(M.generators))) - set(lam.indices)
        for j, (u, v) in lam.certificates.items():
            assert u > 0 and len(v) == len(lam_gens) and all(x >= 0 for x in v)
            combo = tuple(sum(x * g[c] for x, g in zip(v, lam_gens)) for c in range(M.dim))
            assert combo == tuple(u * x for x in M.generators[j])
        certified += 1
    assert certified >= 150  # the draw is not all mismatches


def test_mismatch_exactly_when_the_slope_test_finds_an_outsider():
    mismatches = 0
    for M, indices in draws(900):
        if M.dim == 3:
            continue
        expected = outside_by_slopes(M, sorted(indices))
        if expected is None:
            validate_lambda(M, indices)
        else:
            with pytest.raises(ConeMismatchError) as err:
                validate_lambda(M, indices)
            assert err.value.generator == expected
            mismatches += 1
    assert mismatches >= 50


def test_non_square_lambda_takes_the_first_certifying_column_set():
    # (1,2) is -1/2 (2,0) + 2 (1,1) on the first pair, (2,0)/2 + (0,2) on the second
    M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2), (1, 2)))
    assert validate_lambda(M, (0, 1, 2)).certificates == {3: (2, (1, 0, 2))}
    # collinear Lambda: rank 1, and (3,3) is a multiple of either ray generator
    M = AffineMonoid(2, ((1, 1), (2, 2), (3, 3)))
    assert validate_lambda(M, (1, 2)).certificates == {0: (2, (1, 0))}


def random_wide_lambda_d3(rng):
    """A d = 3 monoid with a cone-spanning Lambda of 4-5 generators."""
    while True:
        M, indices = random_monoid(rng, 3, rng.randint(4, 5))
        try:
            return M, validate_lambda(M, indices)
        except ConeMismatchError:
            continue


def test_wide_lambda_apery_sets_match_the_definition():
    rng = random.Random(SEED + 3)
    for _ in range(12):
        M, lam = random_wide_lambda_d3(rng)
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


NON_SQUARE = AffineMonoid(2, ((2, 0), (1, 1), (0, 2), (1, 2)))


class TestBudget:
    def test_column_sets_past_the_limit_raise(self, monkeypatch):
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "1")
        with pytest.raises(ScanLimitError):
            validate_lambda(NON_SQUARE, (0, 1, 2))
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "2")
        assert validate_lambda(NON_SQUARE, (0, 1, 2)).certificates[3] == (2, (1, 0, 2))

    def test_a_wide_lambda_stops_at_the_limit(self, monkeypatch):
        # 60 Lambda generators in d = 3 give C(60, 3) = 34 220 column sets
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "100")
        lam = [(a, b, 60 - a - b) for a in range(1, 7) for b in range(1, 11)]
        M = AffineMonoid(3, tuple(lam) + ((1, 0, 0),))
        with pytest.raises(ScanLimitError):
            validate_lambda(M, range(len(lam)))

    def test_cli_reports_the_limit_as_a_json_error(self, monkeypatch, capsys):
        argv = ["affine", "--dim", "2", "--gens", "2,0;1,1;0,2;1,2", "--lambda", "1,2,3",
                "--format", "json"]
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "1")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "user" and "APERYKIT_MAX_SCAN" in error["error"]
        monkeypatch.delenv("APERYKIT_MAX_SCAN")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == [1, 2, 3]
