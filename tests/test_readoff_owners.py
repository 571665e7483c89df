"""One owner per read-off decision.

The defining binomials come from one builder for every d, only
``apery_delta`` turns an ordering choice into a basis (and hands it on in
its report), ``type_set`` builds each distinct ordering once, and
``extremal_set`` reads standardness off the report.
"""

import dataclasses

import pytest

import aperykit.apery as apery_module
from aperykit.affine import AffineMonoid, validate_lambda
from aperykit.apery import apery_delta, extremal_set, type_set
from aperykit.groebner import (
    Binomial,
    buchberger,
    defining_binomials,
    ideal_generators,
    in_staircase_complement,
)
from aperykit.orders import apery_order, block_lambda_order, lex_order
from aperykit.semigroup import NumericalSemigroup


def count_buchberger(monkeypatch) -> list:
    """Record the ordering label of every Buchberger run made by apery.py."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].label)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(apery_module, "buchberger", counted)
    return calls


class TestDefiningBinomials:
    def test_numerical_case_is_d_equal_one(self):
        S = NumericalSemigroup([3, 5])
        order = lex_order(3)
        expected = [Binomial((3, 0, 0), (0, 1, 0)), Binomial((5, 0, 0), (0, 0, 1))]
        assert defining_binomials([(3,), (5,)], order) == expected
        assert ideal_generators(S, order) == expected

    def test_affine_layout(self):
        M = AffineMonoid(2, ((2, 0), (1, 1), (0, 2)))
        lam = validate_lambda(M, (0, 2))
        order = block_lambda_order(2, lam.reordered, 2)
        got = defining_binomials(lam.reordered, order)
        # x_1^1 x_2^1 -> y_1, then x_1^2 -> y_2 and x_2^2 -> y_3 (Lambda last)
        assert got == [
            Binomial((1, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
            Binomial((2, 0, 0, 0, 0), (0, 0, 0, 1, 0)),
            Binomial((0, 2, 0, 0, 0), (0, 0, 0, 0, 1)),
        ]

    def test_one_dimensional_affine_monoid_matches_numerical(self, small_corpus):
        for S in small_corpus:
            M = AffineMonoid(1, tuple((a,) for a in S.generators))
            k = len(S.generators)
            for order in (lex_order(k + 1), apery_order(k, 1, S.generators)):
                assert defining_binomials(M.generators, order) == ideal_generators(S, order)


class TestReportBasis:
    S = NumericalSemigroup([7, 8, 9, 13])

    def test_supplied_basis_is_the_one_reported(self):
        order = apery_order(4, 4, self.S.generators)
        basis = buchberger(ideal_generators(self.S, order), order)
        assert apery_delta(self.S, 4, basis=basis).basis is basis
        assert apery_delta(self.S, 4, method="scan", basis=basis).basis is basis

    def test_one_buchberger_run_without_a_basis(self, monkeypatch):
        calls = count_buchberger(monkeypatch)
        report = apery_delta(self.S, 2, inner=(3, 1, 4), flavor="revlex")
        assert calls == ["apery:j=2,inner=3-1-4,revlex"]
        assert report.basis.order.label == report.order_used

    def test_basis_is_left_out_of_equality_and_repr(self):
        report = apery_delta(self.S, 4)
        assert dataclasses.replace(report, basis=None) == report
        assert "basis" not in repr(report)

    def test_bad_j_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"j must be in 1\.\.4, got 5"):
            apery_delta(self.S, 5)


class TestTypeSetChoices:
    def test_repeated_choices_build_one_basis_each(self, monkeypatch):
        S = NumericalSemigroup([7, 8, 9, 13])
        calls = count_buchberger(monkeypatch)
        tr = type_set(S)
        assert len(calls) == len(set(calls)) == 3
        assert list(tr.extremal_sets) == calls


def corner_extremal(S, report, basis):
    """Reference: N stays when every bump of its representation is a non-standard monomial."""
    out = []
    for element in report.elements:
        rep = report.representations[element]
        bumps = [rep[:i] + (rep[i] + 1,) + rep[i + 1:] for i in range(1, len(S.generators))]
        if not any(in_staircase_complement(b, basis) for b in bumps):
            out.append(element)
    return out


class TestExtremalReadOff:
    def test_scan_and_direct_reports_agree_with_the_corner_test(self, small_corpus):
        for S in small_corpus:
            k = len(S.generators)
            for i in range(1, k):
                inner = tuple([p for p in range(1, k) if p != i] + [i])
                direct = apery_delta(S, k, inner=inner, flavor="revlex")
                scan = apery_delta(S, k, inner=inner, flavor="revlex", method="scan",
                                   basis=direct.basis)
                want = corner_extremal(S, direct, direct.basis)
                assert extremal_set(S, direct, direct.basis) == want
                assert extremal_set(S, scan, scan.basis) == want
