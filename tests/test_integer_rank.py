"""The integer elimination behind OrderSpec and the cone certificates.

Its rank is compared with textbook elimination over Fraction, which lives
only here: importing aperykit must not load ``fractions``.
"""

import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import aperykit
from aperykit.orders import eliminate, integer_rank


def fraction_rank(rows):
    """Textbook Gaussian elimination over Q, the reference for integer_rank."""
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


@st.composite
def matrices(draw):
    """Small integer matrices, often with rows that combine earlier ones."""
    cols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.insert(
            draw(st.integers(0, len(rows))),
            [a * x + b * y for x, y in zip(rows[i], rows[j])],
        )
    return rows


@given(matrices())
@settings(max_examples=400, deadline=None)
def test_rank_matches_fraction_elimination(rows):
    assert integer_rank(rows) == fraction_rank(rows)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_elimination_is_gauss_jordan(rows, data):
    width = data.draw(st.integers(0, len(rows[0]) if rows else 0))
    pivots, rest = eliminate(rows, width)
    columns = [c for c, _ in pivots]
    assert len(set(columns)) == len(columns) and all(c < width for c in columns)
    for c, row in pivots:
        assert row[c] and all(other[c] == 0 for d, other in pivots if d != c)
    assert all(any(row) and not any(row[:width]) for row in rest)
    # the row operations are invertible, so the row space is kept
    assert len(pivots) + integer_rank(rest) == fraction_rank(rows)


def test_fixed_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [3, 6]]) == 1
    assert integer_rank([[1, 0, 0], [0, 1, 0], [1, 1, 1]]) == 3


def test_import_loads_no_fractions():
    src = os.path.dirname(os.path.dirname(aperykit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, aperykit; print('fractions' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
