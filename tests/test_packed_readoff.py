"""The staircase read-off on packed points: the report's invariant checks,
the exactness guard of ``packed_degrees``, lazily unpacked representations,
and a regression at generators of 2·10^4-4·10^4.

Each invariant is checked per element on packed values; a corrupted point
must still be named in the error.  ``packed_degrees`` reads one field of a
product while no field can carry and unpacks past that bound, so both
sides of the bound are fed directly.
"""

import random

import pytest

import aperykit.groebner as groebner
from aperykit.apery import _check_report_invariants, apery_delta, extremal_set
from aperykit.errors import InternalInvariantError
from aperykit.groebner import field_step, pack_exponent, packed_degrees, phi_degree
from aperykit.semigroup import NumericalSemigroup, apery_bruteforce, typeset_bruteforce

LIMIT = 1 << 62


def corrupted(report, element, step):
    """The report's points with ``step`` added to the point of ``element``."""
    points = dict(report.points)
    points[element] += step
    return points


class TestReportInvariants:
    S = NumericalSemigroup([7, 9, 11, 13])

    def check(self, report, points):
        gens = report.generators
        j = gens.index(report.wrt) + 1
        _check_report_invariants(gens, report.wrt, tuple(sorted(points)), points, j)

    def test_a_valid_report_passes(self):
        for j in range(1, 5):
            report = apery_delta(self.S, j)
            self.check(report, report.points)

    @pytest.mark.parametrize("j", [1, 4])
    def test_degree_off_by_one_free_step_names_the_element(self, j):
        report = apery_delta(self.S, j)
        element = report.elements[-1]
        i = 2  # a free column for both j
        a = self.S.generators[i - 1]
        with pytest.raises(
            InternalInvariantError, match=f"representation of {element} has degree {element + a}"
        ):
            self.check(report, corrupted(report, element, field_step(i)))

    @pytest.mark.parametrize("column", ["x", "y_j"])
    def test_a_nonzero_x_or_y_j_field_names_the_element(self, column):
        j = 3
        report = apery_delta(self.S, j)
        element = report.elements[2]
        step = 1 if column == "x" else field_step(j)
        with pytest.raises(
            InternalInvariantError, match=f"representation of {element} touches x or y_j"
        ):
            self.check(report, corrupted(report, element, step))

    def test_residue_system_still_checked(self):
        report = apery_delta(self.S, 1)
        points = dict(report.points)
        lost, kept = report.elements[-1], report.elements[1]
        points[kept + 7] = points.pop(lost)  # a second element of kept's class
        with pytest.raises(InternalInvariantError, match="not a full system"):
            self.check(report, points)


class TestExactnessGuard:
    """m * (largest field) * max(weight) < 2^62 reads the product, else unpacks."""

    def test_under_the_bound_reads_the_product(self, monkeypatch):
        # m = 3, fields of the points' OR at most t, weight b: 3 * t * b just below 2^62
        b = (1 << 31) + 1
        t = (LIMIT - 1) // (3 * b)
        points = [pack_exponent((0, 0, t)), pack_exponent((5, t, 0)), 0]
        want = [phi_degree((0, 0, t), (3, b)), phi_degree((5, t, 0), (3, b)), 0]

        def unpacked(*_):
            raise AssertionError("fell back under the bound")

        monkeypatch.setattr(groebner, "phi_degree", unpacked)
        assert packed_degrees(points, (3, b)) == want

    def test_at_the_bound_unpacks(self, monkeypatch):
        b = (1 << 31) + 1
        t = LIMIT // (3 * b) + 1
        calls = []
        real = groebner.phi_degree
        monkeypatch.setattr(groebner, "phi_degree", lambda v, w: calls.append(v) or real(v, w))
        assert packed_degrees([pack_exponent((0, 0, t))], (3, b)) == [t * b]
        assert calls == [(0, 0, t)]

    def test_degrees_past_2_to_the_64_stay_exact(self):
        # one field of the product would hold only the degree mod 2^64
        b, t = (1 << 40) + 1, (1 << 30) + 1
        v = (7, t, t + 2)
        assert t * (b + 1) > 1 << 64
        weights = (b - 1, b + 1)
        assert packed_degrees([pack_exponent(v)], weights) == [phi_degree(v, weights)]

    def test_invariant_check_past_the_bound(self):
        # synthetic Ap(<2, b>, 2) = {0, b * t}, with b * t far past 2^64
        b, t = (1 << 40) + 1, (1 << 30) + 1
        gens, element = (2, b), b * t
        points = {0: 0, element: pack_exponent((0, 0, t))}
        _check_report_invariants(gens, 2, (0, element), points, 1)
        wrong = element + 2 * b  # same residue, one point short of it
        message = f"representation of {wrong} has degree {element}"
        with pytest.raises(InternalInvariantError, match=message):
            _check_report_invariants(gens, 2, (0, wrong), {0: 0, wrong: points[element]}, 1)

    def test_empty_and_weightless(self):
        assert packed_degrees([], (3, 5)) == []
        assert packed_degrees([0, 4], ()) == [0, 4]


class TestSmallK:
    def test_k1_walks_the_empty_face(self):
        report = apery_delta(NumericalSemigroup([1]), 1)
        assert report.elements == (0,)
        assert report.points == {0: 0}
        assert report.representations == {0: (0, 0)}
        assert extremal_set(NumericalSemigroup([1]), report, report.basis) == [0]

    def test_k2_walks_one_free_column(self):
        S = NumericalSemigroup([3, 5])
        for j, free in ((1, 2), (2, 1)):
            direct = apery_delta(S, j)
            scan = apery_delta(S, j, method="scan", basis=direct.basis)
            assert direct == scan
            assert direct.elements == tuple(apery_bruteforce(S, S.generators[j - 1]))
            for element, v in direct.points.items():
                n = element // S.generators[free - 1]
                assert v == n * field_step(free)
                assert direct.representations[element][free] == n
        report = apery_delta(S, 2)
        assert extremal_set(S, report, report.basis) == [12]  # Ap(S, 5) = {0, 3, 6, 9, 12}


class TestLazyRepresentations:
    def test_reading_them_changes_neither_equality_nor_repr(self):
        S = NumericalSemigroup([7, 9, 11])
        read, unread = apery_delta(S, 3), apery_delta(S, 3)
        before = repr(read)
        assert "representations" not in before
        assert read.representations == {
            e: groebner.unpack_exponent(v, 4) for e, v in read.points.items()
        }
        assert read.representations is read.representations  # unpacked once
        assert read == unread and unread == read
        assert repr(read) == before == repr(unread)
        assert read != apery_delta(S, 3, inner=(2, 1), flavor="revlex")


def test_big_generators_k4():
    """One seeded k = 4 monoid on 2·10^4-4·10^4: exponents far past the corpus's."""
    rng = random.Random(4)
    while True:
        try:
            S = NumericalSemigroup(sorted(rng.sample(range(20_000, 40_001), 4)))
            break
        except ValueError:
            continue
    report = apery_delta(S, 4)
    ap = apery_bruteforce(S, S.generators[-1])
    assert list(report.elements) == ap
    assert set(typeset_bruteforce(S)) <= set(extremal_set(S, report, report.basis)) <= set(ap)
    gens = S.generators
    assert all(phi_degree(rep, gens) == e for e, rep in report.representations.items())
