"""Apery engine: classification, delta sets, extremal sets, type sets."""

import pytest

from aperykit import apery as apery_module
from aperykit.apery import (
    apery_delta,
    classify,
    extremal_set,
    gaps_via_groebner,
    type_set,
)
from aperykit.errors import OrderNotEliminationError, ScanLimitError
from aperykit.groebner import (
    PackedReducer,
    buchberger,
    ideal_generators,
    normal_form,
    phi_degree,
)
from aperykit.orders import OrderSpec, apery_order, lex_order
from aperykit.semigroup import (
    NumericalSemigroup,
    apery_bruteforce,
    contains,
    gaps,
    selmer_invariants,
    typeset_bruteforce,
)


def lex_basis(S):
    order = lex_order(len(S.generators) + 1)
    return buchberger(ideal_generators(S, order), order)


class TestClassify:
    def test_published_examples(self):
        S = NumericalSemigroup([7, 9, 11])
        basis = lex_basis(S)
        gap12 = classify(S, 12, basis)
        assert not gap12.in_monoid and gap12.exponent == (1, 0, 0, 1)
        zero = classify(S, 0, basis)
        assert zero.in_monoid and zero.exponent == (0, 0, 0, 0)
        member20 = classify(S, 20, basis)
        assert member20.in_monoid and contains(S, 20)

    def test_matches_oracle_past_frobenius(self):
        S = NumericalSemigroup([7, 9, 11])
        basis = lex_basis(S)
        for l in range(0, 26 + 7 + 1):
            assert classify(S, l, basis).in_monoid == contains(S, l)

    def test_rejects_non_elimination_order(self):
        S = NumericalSemigroup([2, 3])
        order = OrderSpec(
            num_vars=3, rows=((1, 2, 3), (0, 1, 0), (0, 0, 1)), label="graded"
        )
        basis = buchberger(ideal_generators(S, order), order)
        with pytest.raises(OrderNotEliminationError):
            classify(S, 5, basis)


class TestGapsViaGroebner:
    def test_published_gap_sets(self):
        S = NumericalSemigroup([7, 9, 11])
        assert gaps_via_groebner(S, lex_basis(S)) == gaps(S)
        S2 = NumericalSemigroup([2, 3])
        assert gaps_via_groebner(S2, lex_basis(S2)) == [1]

    def test_random_monoids_match_oracle(self, small_corpus):
        for S in small_corpus[:12]:
            assert gaps_via_groebner(S, lex_basis(S)) == gaps(S)

    def test_uses_only_the_basis_it_is_given(self, monkeypatch):
        S = NumericalSemigroup([7, 9, 11])
        basis = lex_basis(S)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return buchberger(*args, **kwargs)

        monkeypatch.setattr(apery_module, "buchberger", counting)
        assert gaps_via_groebner(S, basis) == gaps(S)
        assert calls == []

    def test_scan_guard(self, monkeypatch):
        S = NumericalSemigroup([7, 9, 11])
        basis = lex_basis(S)
        # the scan ends at 26 + 7 = 33, after a_1 members in a row
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "33")
        assert gaps_via_groebner(S, basis) == gaps(S)
        monkeypatch.setenv("APERYKIT_MAX_SCAN", "32")
        with pytest.raises(ScanLimitError):
            gaps_via_groebner(S, basis)


class TestAperyDelta:
    def test_published_sets(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        report = apery_delta(S, 4)
        assert list(report.elements) == [0, 7, 8, 9, 14, 15, 16, 17, 18, 23, 24, 25, 32]
        S2 = NumericalSemigroup([7, 9, 11, 15])
        assert list(apery_delta(S2, 1).elements) == [0, 9, 11, 15, 20, 24, 26]

    def test_representations_carry_the_degree(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        report = apery_delta(S, 4)
        for element, rep in report.representations.items():
            assert rep[0] == 0 and rep[4] == 0
            assert phi_degree(rep, S.generators) == element

    def test_inner_choice_changes_representations_not_elements(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        reports = [
            apery_delta(S, 4, inner=inner, flavor=flavor)
            for inner, flavor in [
                ((1, 2, 3), "lex"),
                ((1, 2, 3), "revlex"),
                ((2, 3, 1), "revlex"),
                ((1, 3, 2), "revlex"),
            ]
        ]
        assert all(r.elements == reports[0].elements for r in reports)
        assert any(
            r.representations != reports[0].representations for r in reports[1:]
        )

    def test_direct_method_agrees_with_scan(self, small_corpus):
        for S in small_corpus[:10]:
            k = len(S.generators)
            scan = apery_delta(S, k, method="scan")
            direct = apery_delta(S, k, method="direct")
            assert scan.elements == direct.elements
            assert scan.representations == direct.representations

    def test_matches_oracle_for_every_generator(self, small_corpus):
        for S in small_corpus[:10]:
            for j in range(1, len(S.generators) + 1):
                report = apery_delta(S, j)
                assert list(report.elements) == apery_bruteforce(
                    S, S.generators[j - 1]
                )

    def test_matches_oracle_wide_sweep(self):
        # 200 monoids at the full size bounds, the generator position cycling
        # so every j is exercised across the sweep
        from aperykit.sampling import random_corpus

        for n, S in enumerate(random_corpus(424242, 200, kmin=3, kmax=5, max_gen=60)):
            j = n % len(S.generators) + 1
            report = apery_delta(S, j)
            assert list(report.elements) == apery_bruteforce(S, S.generators[j - 1])

    def test_basis_label_guard(self):
        S = NumericalSemigroup([5, 7, 9])
        order = apery_order(3, 1, S.generators)
        basis = buchberger(ideal_generators(S, order), order)
        with pytest.raises(ValueError):
            apery_delta(S, 2, basis=basis)


class TestExtremalSets:
    def test_published_sets(self):
        S = NumericalSemigroup([7, 8, 9, 13])
        expected = [
            ((1, 2, 3), [24, 32]),
            ((1, 3, 2), [14, 18, 23, 25, 32]),
            ((2, 3, 1), [24, 32]),
        ]
        for inner, want in expected:
            order = apery_order(4, 4, S.generators, inner=inner, flavor="revlex")
            basis = buchberger(ideal_generators(S, order), order)
            report = apery_delta(S, 4, inner=inner, flavor="revlex", basis=basis)
            assert extremal_set(S, report, basis) == want

    def test_contains_typeset(self, small_corpus):
        for S in small_corpus[:10]:
            if len(S.generators) < 2:
                continue
            k = len(S.generators)
            report = apery_delta(S, k)
            order = apery_order(k, k, S.generators)
            basis = buchberger(ideal_generators(S, order), order)
            part = extremal_set(S, report, basis)
            assert set(typeset_bruteforce(S)) <= set(part)

    def test_frobenius_witness_is_always_extremal(self, small_corpus):
        for S in small_corpus[:10]:
            k = len(S.generators)
            f = selmer_invariants(S, S.generators[0]).frobenius
            report = apery_delta(S, k)
            order = apery_order(k, k, S.generators)
            basis = buchberger(ideal_generators(S, order), order)
            assert f + S.generators[-1] in extremal_set(S, report, basis)

    def test_rejects_mismatched_report(self):
        S = NumericalSemigroup([5, 7, 9])
        report = apery_delta(S, 3)
        order = apery_order(3, 3, S.generators, inner=(2, 1), flavor="revlex")
        basis = buchberger(ideal_generators(S, order), order)
        with pytest.raises(ValueError):
            extremal_set(S, report, basis)
        with pytest.raises(ValueError):
            extremal_set(S, apery_delta(S, 1), basis)

    def test_rejects_a_report_of_another_monoid(self):
        S = NumericalSemigroup([5, 7, 9])
        other = apery_delta(NumericalSemigroup([4, 7, 9]), 3)
        with pytest.raises(ValueError, match="report was built for"):
            extremal_set(S, other, other.basis)
        own = apery_delta(S, 3)
        assert extremal_set(S, own, own.basis) == [20, 22]


class TestTypeSet:
    def test_published_values(self):
        tr = type_set(NumericalSemigroup([7, 8, 9, 13]))
        assert tr.type_set == (32,) and tr.pf == (19,)
        assert tr.type == 1 and tr.gorenstein

        tr2 = type_set(NumericalSemigroup([3, 7, 11]))
        assert tr2.type_set == (15, 19) and tr2.pf == (4, 8)
        assert tr2.type == 2 and not tr2.gorenstein

        tr3 = type_set(NumericalSemigroup([2, 3]))
        assert tr3.type == 1 and tr3.gorenstein

    def test_intersection_of_published_extremal_sets(self):
        tr = type_set(NumericalSemigroup([7, 8, 9, 13]))
        parts = list(tr.extremal_sets.values())
        assert len(parts) == 3
        assert set(parts[0]).intersection(*map(set, parts[1:])) == {32}

    def test_running_intersection_is_monotone(self, small_corpus):
        for S in small_corpus[:8]:
            if len(S.generators) < 3:
                continue
            tr = type_set(S)
            ts = set(typeset_bruteforce(S))
            running = None
            for part in tr.extremal_sets.values():
                running = set(part) if running is None else running & set(part)
                assert ts <= running
            assert running == ts

    def test_extra_orders_change_nothing(self):
        # the type set lies in the extremal set of any other Apery ordering too
        S = NumericalSemigroup([7, 8, 9, 13])
        report = apery_delta(S, 4, inner=(1, 2, 3), flavor="lex")
        assert set(type_set(S).type_set) <= set(extremal_set(S, report, report.basis))

    def test_requires_k_at_least_2(self):
        with pytest.raises(ValueError):
            type_set(NumericalSemigroup([1]))


class TestReadoffRoute:
    """The default read-off walks the face; classification shares one reducer."""

    @staticmethod
    def apery_basis(S, j=None, **kw):
        k = len(S.generators)
        order = apery_order(k, j or k, S.generators, **kw)
        return buchberger(ideal_generators(S, order), order)

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = PackedReducer.for_basis

        def counted(basis):
            builds.append(basis)
            return build(basis)

        monkeypatch.setattr(PackedReducer, "for_basis", staticmethod(counted))
        return builds

    def test_default_rewrites_nothing(self, monkeypatch):
        S = NumericalSemigroup([7, 8, 9, 13])
        basis = self.apery_basis(S)
        calls = []
        reduce_packed = PackedReducer.reduce_packed

        def counted(reducer, v):
            calls.append(v)
            return reduce_packed(reducer, v)

        monkeypatch.setattr(PackedReducer, "reduce_packed", counted)
        report = apery_delta(S, 4, basis=basis)
        assert list(report.elements) == apery_bruteforce(S, 13)
        assert calls == []

    def test_default_matches_scan_for_every_j(self, small_corpus):
        for S in small_corpus[:10]:
            for j in range(1, len(S.generators) + 1):
                basis = self.apery_basis(S, j)
                default = apery_delta(S, j, basis=basis)
                scan = apery_delta(S, j, method="scan", basis=basis)
                assert default.elements == scan.elements
                assert default.representations == scan.representations

    def test_classify_builds_one_reducer_per_basis(self, monkeypatch):
        S = NumericalSemigroup([7, 9, 11])
        basis = lex_basis(S)
        builds = self.count_builds(monkeypatch)
        for l in range(20, 28):
            assert classify(S, l, basis).in_monoid == contains(S, l)
        assert builds == [basis]

    def test_alternating_bases_keep_their_own_reductions(self, monkeypatch):
        S, T = NumericalSemigroup([7, 9, 11]), NumericalSemigroup([7, 8, 9, 13])
        pairs = [
            (S, lex_basis(S)),
            (T, self.apery_basis(T)),
            (T, self.apery_basis(T, inner=(3, 1, 2), flavor="revlex")),
        ]
        builds = self.count_builds(monkeypatch)
        for l in range(40):
            for M, basis in pairs:
                assert classify(M, l, basis).in_monoid == contains(M, l)
                v = (l, 1) + (0,) * (len(M.generators) - 1)
                assert normal_form(v, basis) == PackedReducer.for_basis(basis).reduce_exponent(v)
        # classify rebuilds on each switch of basis, normal_form then reuses
        # that reducer, and the reference reducer is one more build
        assert len(builds) == 2 * 40 * len(pairs)
