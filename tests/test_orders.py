"""Matrix monomial orderings: totality, positivity, constructors, descriptors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperykit.errors import (
    InvalidLambdaError,
    InvalidPermutationError,
    LengthMismatchError,
)
from aperykit.orders import (
    EQUAL,
    GREATER,
    LESS,
    OrderSpec,
    apery_order,
    block_lambda_order,
    compare,
    is_elimination_for_x,
    lex_order,
    parse_order_descriptor,
)

vectors = st.lists(st.integers(0, 30), min_size=4, max_size=4).map(tuple)


class TestOrderSpec:
    def test_rejects_rank_deficient_rows(self):
        with pytest.raises(ValueError):
            OrderSpec(num_vars=2, rows=((1, 1),))

    def test_rejects_non_monomial_order(self):
        with pytest.raises(ValueError):
            OrderSpec(num_vars=2, rows=((1, -1), (0, 1)))
        # fine when the negative weight sits below a positive one
        OrderSpec(num_vars=2, rows=((1, 1), (0, -1)))

    def test_length_mismatch(self):
        o = lex_order(3)
        with pytest.raises(LengthMismatchError):
            compare(o, (1, 0), (0, 1, 0))


class TestCompare:
    def test_lex_dominance(self):
        o = lex_order(2)
        assert compare(o, (1, 0), (0, 5)) == GREATER

    def test_equal_only_on_identical(self):
        o = lex_order(2)
        assert compare(o, (2, 3), (2, 3)) == EQUAL

    def test_apery_layering(self):
        # wrt a_3 = 11 on (7, 9, 11): x first, then 7a1 + 9a2
        o = apery_order(3, 3, (7, 9, 11))
        assert compare(o, (1, 0, 0, 0), (0, 9, 9, 9)) == GREATER
        assert compare(o, (0, 1, 0, 0), (0, 0, 1, 0)) == LESS  # 7 < 9
        assert compare(o, (0, 0, 0, 5), (0, 1, 0, 0)) == LESS  # y_3 graded to zero

    @given(vectors, vectors, vectors)
    @settings(max_examples=120, deadline=None)
    def test_total_order_properties(self, u, v, w):
        o = apery_order(3, 2, (5, 7, 9))
        cuv = compare(o, u, v)
        assert cuv == -compare(o, v, u)
        if compare(o, u, v) != GREATER and compare(o, v, w) != GREATER:
            assert compare(o, u, w) != GREATER  # transitivity of <=
        if u != v:
            assert cuv != EQUAL

    @given(vectors, vectors, vectors)
    @settings(max_examples=120, deadline=None)
    def test_monotone_under_translation(self, u, v, w):
        o = apery_order(3, 1, (5, 7, 9))
        shifted_u = tuple(a + b for a, b in zip(u, w))
        shifted_v = tuple(a + b for a, b in zip(v, w))
        assert compare(o, u, v) == compare(o, shifted_u, shifted_v)

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_zero_is_minimal(self, u):
        o = apery_order(3, 3, (5, 7, 9))
        if any(u):
            assert compare(o, u, (0, 0, 0, 0)) == GREATER


class TestAperyOrder:
    def test_matches_displayed_template(self):
        o = apery_order(4, 2, (7, 8, 9, 13))
        assert o.rows == (
            (1, 0, 0, 0, 0),
            (0, 7, 0, 9, 13),
            (0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 1, 0, 0),
        )

    def test_revlex_rows_walk_the_sequence_backwards(self):
        o = apery_order(4, 4, (7, 8, 9, 13), inner=(1, 3, 2), flavor="revlex")
        assert o.rows == (
            (1, 0, 0, 0, 0),
            (0, 7, 8, 9, 0),
            (0, 0, -1, 0, 0),
            (0, 0, 0, -1, 0),
            (0, -1, 0, 0, 0),
            (0, 0, 0, 0, 1),
        )

    def test_revlex_tie_rule(self):
        # between grade-equal, x-free, y_4-free vectors the one with the
        # larger exponent on the sequence's last variable is smaller
        o = apery_order(4, 4, (7, 8, 9, 13), inner=(2, 3, 1), flavor="revlex")
        u = (0, 9, 0, 0, 0)  # grade 63, no y_1... y_1 exponent 9
        v = (0, 0, 0, 7, 0)  # grade 63, y_1 exponent 0
        assert compare(o, u, v) == LESS

    def test_always_eliminates_x(self):
        for j in (1, 2, 3):
            for flavor in ("lex", "revlex"):
                o = apery_order(3, j, (5, 7, 9), flavor=flavor)
                assert is_elimination_for_x(o)

    def test_rejects_bad_permutation(self):
        with pytest.raises(InvalidPermutationError):
            apery_order(3, 1, (5, 7, 9), inner=(1, 2))
        with pytest.raises(InvalidPermutationError):
            apery_order(3, 1, (5, 7, 9), inner=(2, 2))
        with pytest.raises(ValueError):
            apery_order(3, 1, (5, 7, 9), flavor="grevlex")

    def test_single_generator(self):
        o = apery_order(1, 1, (1,))
        assert compare(o, (1, 0), (0, 5)) == GREATER


def definition_block_compare(d, gens, x_order_rows, u, v):
    """Direct reading of the block order: x block, then coordinatewise
    degree of the y part, then reverse-lex from the last variable."""
    if u == v:
        return EQUAL
    for row in x_order_rows:
        du = sum(a * b for a, b in zip(row, u[:d]))
        dv = sum(a * b for a, b in zip(row, v[:d]))
        if du != dv:
            return GREATER if du > dv else LESS
    for c in range(d):
        du = sum(e * g[c] for e, g in zip(u[d:], gens))
        dv = sum(e * g[c] for e, g in zip(v[d:], gens))
        if du != dv:
            return GREATER if du > dv else LESS
    for p in range(len(gens) - 1, -1, -1):
        if u[d + p] != v[d + p]:
            return LESS if u[d + p] > v[d + p] else GREATER
    return EQUAL


class TestBlockLambdaOrder:
    def test_d1_matrix_template(self):
        o = block_lambda_order(1, ((7,), (9,), (11,)), 1)
        assert o.rows == (
            (1, 0, 0, 0),
            (0, 7, 9, 11),
            (0, 0, 0, -1),
            (0, 0, -1, 0),
        )

    def test_lambda_all_is_graded_revlex(self):
        o = block_lambda_order(1, ((2,), (3,)), 2)
        # degree decides first: 2*3 == 3*2 is a tie, then y_2 bigger loses
        assert compare(o, (0, 0, 2), (0, 3, 0)) == LESS
        assert compare(o, (0, 2, 0), (0, 0, 1)) == GREATER  # degree 4 vs 3

    def test_derived_random_pairs_match_definition(self):
        import random

        gens = ((2, 0), (1, 1), (0, 2))
        o = block_lambda_order(2, gens, 2)
        rng = random.Random(5)
        x_rows = ((1, 0), (0, 1))
        for _ in range(20):
            u = tuple(rng.randint(0, 6) for _ in range(5))
            v = tuple(rng.randint(0, 6) for _ in range(5))
            assert compare(o, u, v) == definition_block_compare(2, gens, x_rows, u, v)

    def test_rejects_bad_lambda_size(self):
        with pytest.raises(InvalidLambdaError):
            block_lambda_order(1, ((2,), (3,)), 0)
        with pytest.raises(InvalidLambdaError):
            block_lambda_order(1, ((2,), (3,)), 3)


class TestElimination:
    def test_lex_is_elimination(self):
        assert is_elimination_for_x(lex_order(4))

    def test_graded_revlex_is_not(self):
        o = OrderSpec(
            num_vars=3,
            rows=((1, 1, 1), (0, 0, -1), (0, -1, 0)),
            label="grevlex",
        )
        assert not is_elimination_for_x(o)

    def test_apery_order_is(self):
        assert is_elimination_for_x(apery_order(2, 1, (2, 3)))


class TestDescriptors:
    def test_lex(self):
        o = parse_order_descriptor("lex", (7, 9, 11))
        assert o.rows == lex_order(4).rows

    def test_apery(self):
        o = parse_order_descriptor("apery:j=4,inner=1-3-2,revlex", (7, 8, 9, 13))
        assert o.label == "apery:j=4,inner=1-3-2,revlex"
        o2 = parse_order_descriptor("apery:j=2", (7, 9, 11))
        assert o2.label == "apery:j=2,inner=1-3,lex"

    def test_undashed_inner_below_ten_generators(self):
        o = parse_order_descriptor("apery:j=3,inner=12", (5, 7, 9))
        assert o.rows == parse_order_descriptor("apery:j=3,inner=1-2", (5, 7, 9)).rows
        assert o.label == "apery:j=3,inner=1-2,lex"

    def test_undashed_inner_rejected_from_ten_generators(self):
        gens = tuple(range(11, 21))
        with pytest.raises(ValueError, match="ambiguous"):
            parse_order_descriptor("apery:j=10,inner=12", gens)
        o = parse_order_descriptor("apery:j=10,inner=9-8-7-6-5-4-3-2-1", gens)
        assert o.label == "apery:j=10,inner=9-8-7-6-5-4-3-2-1,lex"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_order_descriptor("sugar", (2, 3))
        with pytest.raises(ValueError):
            parse_order_descriptor("apery:inner=1-2", (5, 7, 9))
        with pytest.raises(ValueError, match="lex or apery"):
            parse_order_descriptor("block:lambda=9", (2, 3))
