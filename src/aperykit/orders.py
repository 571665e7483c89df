"""Matrix-defined total monomial orderings on exponent vectors.

An ordering is a stack of integer weight rows; monomials are compared by
the lexicographic order of their weight images down the rows.  Construction
verifies the two properties that make such a stack a usable monomial
ordering: the rows' common rational kernel meets Z^m only in 0 (totality),
and the first nonzero weight in every column is positive (each variable
exceeds 1, so reductions terminate).  Totality is a rank, computed by
:func:`eliminate`, the integer elimination that also gives the affine cone
certificates.

Constructors cover plain lex, the four-layer elimination orderings used to
read Apery sets off a staircase, and the block orderings used for affine
monoids.  All weights are plain Python integers, so there is no overflow
to worry about anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import (
    InternalInvariantError,
    InvalidLambdaError,
    InvalidPermutationError,
    LengthMismatchError,
)

Exponent = tuple[int, ...]

LESS, EQUAL, GREATER = -1, 0, 1


def eliminate(rows, width: int) -> tuple[list[tuple[int, list[int]]], list[list[int]]]:
    """Gauss-Jordan over Q in integers, pivoting in the first ``width`` columns.

    Returns ``(pivots, rest)``.  ``pivots`` holds one ``(column, row)`` pair
    per pivot, and every pivot column is zero outside its own row; ``rest``
    holds the other nonzero rows, which are zero in the first ``width``
    columns.  A row is combined with a pivot only when it has a nonzero in
    the pivot column, and each new row is divided by its gcd, as in
    :func:`aperykit.homology._rank_exact`: no rationals, and the entries stay
    small (Bareiss, Math. Comp. 22, 1968).
    """
    pivots: list[tuple[int, list[int]]] = []
    rest: list[list[int]] = []
    pending = [list(row) for row in rows if any(row)]
    while pending:
        row = pending.pop()
        col = next((c for c in range(width) if row[c]), None)
        if col is None:
            rest.append(row)
            continue
        pending = [r for r in (_cancel(other, row, col) for other in pending) if r]
        pivots = [(c, _cancel(other, row, col)) for c, other in pivots]
        pivots.append((col, row))
    return pivots, rest


def _cancel(row, pivot, col):
    """``pivot[col] * row - row[col] * pivot`` over its gcd, [] when that is zero."""
    f = row[col]
    if not f:
        return row
    p = pivot[col]
    row = [p * v - f * w for v, w in zip(row, pivot)]
    g = reduce(gcd, row)  # gcd(*row) would fill the tuple free lists
    if g > 1:
        row = [v // g for v in row]
    return row if g else []


def integer_rank(rows) -> int:
    """Rank over Q of an integer matrix given by its rows."""
    return len(eliminate(rows, len(rows[0]) if rows else 0)[0])


@dataclass(frozen=True)
class OrderSpec:
    """A total monomial ordering given by integer weight rows.

    ``rows`` are compared top to bottom; comparisons short-circuit on the
    first row where the weighted sums differ, so no square-matrix padding
    is ever needed.
    """

    num_vars: int
    rows: tuple[tuple[int, ...], ...]
    label: str = "custom"

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if any(len(row) != self.num_vars for row in rows):
            raise ValueError("every weight row must have num_vars entries")
        if integer_rank(rows) != self.num_vars:
            raise ValueError(
                f"weight rows do not define a total order on {self.num_vars} variables"
            )
        for col in range(self.num_vars):
            lead_weight = next((row[col] for row in rows if row[col]), 0)
            if lead_weight <= 0:
                raise ValueError(
                    f"not a monomial ordering: variable {col} does not exceed 1"
                )

    def key(self, v: Exponent) -> tuple[int, ...]:
        """Weight image of v; tuples compare like the ordering itself."""
        return tuple(sum(map(int.__mul__, row, v)) for row in self.rows)


def compare(order: OrderSpec, u: Exponent, v: Exponent) -> int:
    """LESS / EQUAL / GREATER for u versus v; EQUAL only when u == v."""
    if len(u) != order.num_vars or len(v) != order.num_vars:
        raise LengthMismatchError(
            f"expected exponent vectors of length {order.num_vars}, "
            f"got {len(u)} and {len(v)}"
        )
    if u == v:
        return EQUAL
    for row in order.rows:
        du = sum(map(int.__mul__, row, u))
        dv = sum(map(int.__mul__, row, v))
        if du != dv:
            return GREATER if du > dv else LESS
    raise InternalInvariantError(f"total order failed to separate {u} and {v}")


def _unit(m: int, col: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if i == col else 0 for i in range(m))


def lex_order(num_vars: int) -> OrderSpec:
    """Plain lexicographic ordering, first variable most significant."""
    rows = tuple(_unit(num_vars, c) for c in range(num_vars))
    return OrderSpec(num_vars=num_vars, rows=rows, label="lex")


def apery_order(k, j, weights, inner=None, flavor: str = "lex") -> OrderSpec:
    """Elimination ordering on Q[x, y_1..y_k] tuned to read Ap(S, a_j).

    Layers, most significant first:

    1. the exponent on x;
    2. the grading sum(alpha_i * a_i) over i != j;
    3. a tie order on {y_i : i != j} given by ``inner`` (a permutation of
       the remaining indices) in the chosen ``flavor``;
    4. the exponent on y_j.

    ``flavor="lex"`` compares the inner variables in sequence order with
    larger exponents winning; ``flavor="revlex"`` walks the sequence from
    its end with larger exponents losing, so the last listed variable is
    the one whose growth pushes a monomial down first.  Layer 2 alone makes
    either flavor a well-ordering.  The default inner sequence is the
    remaining indices in increasing order with the lex flavor.
    """
    weights = tuple(int(a) for a in weights)
    if k != len(weights):
        raise ValueError(f"k={k} does not match {len(weights)} weights")
    if any(a <= 0 for a in weights):
        raise ValueError("weights must be positive")
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}, got {j}")
    remaining = tuple(i for i in range(1, k + 1) if i != j)
    if inner is None:
        inner = remaining
    else:
        inner = tuple(int(i) for i in inner)
        if sorted(inner) != list(remaining):
            raise InvalidPermutationError(
                f"inner must be a permutation of {remaining}, got {inner}"
            )
    if flavor not in ("lex", "revlex"):
        raise ValueError(f"flavor must be 'lex' or 'revlex', got {flavor!r}")

    m = k + 1
    rows = [_unit(m, 0)]
    grading = tuple(
        0 if c == 0 or c == j else weights[c - 1] for c in range(m)
    )
    if any(grading):
        rows.append(grading)
    if flavor == "lex":
        rows.extend(_unit(m, p) for p in inner)
    else:
        rows.extend(_unit(m, p, -1) for p in reversed(inner))
    rows.append(_unit(m, j))
    label = f"apery:j={j},inner={'-'.join(map(str, inner))},{flavor}"
    return OrderSpec(num_vars=m, rows=tuple(rows), label=label)


def block_lambda_order(d, generators, n) -> OrderSpec:
    """Block ordering on Q[x_1..x_d, y_1..y_k] for an affine Apery computation.

    The x block is compared first, lexicographically.  Ties fall
    to the y block, graded coordinate-by-coordinate by the generator matrix,
    then broken reverse-lexicographically from y_k down to y_2, so monomials
    touching the trailing Lambda variables sink below Lambda-free monomials
    of the same degree.  Callers must place the Lambda generators in the
    last ``n`` positions.
    """
    generators = tuple(tuple(int(x) for x in g) for g in generators)
    k = len(generators)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not generators:
        raise ValueError("at least one generator is required")
    if any(len(g) != d for g in generators):
        raise ValueError("every generator must have d coordinates")
    if any(all(x == 0 for x in g) for g in generators):
        raise ValueError("generators must be nonzero")
    if any(x < 0 for g in generators for x in g):
        raise ValueError("generators must have nonnegative coordinates")
    if not 1 <= n <= k:
        raise InvalidLambdaError(f"Lambda size must be in 1..{k}, got {n}")

    m = d + k
    x_rows = [_unit(m, c) for c in range(d)]
    grading_rows = [
        tuple([0] * d + [g[i] for g in generators]) for i in range(d)
    ]
    revlex_rows = [_unit(m, d + p - 1, -1) for p in range(k, 1, -1)]
    rows = tuple(x_rows + grading_rows + revlex_rows)
    label = f"block:lambda={n},d={d}"
    return OrderSpec(num_vars=m, rows=rows, label=label)


def is_elimination_for_x(order: OrderSpec) -> bool:
    """True iff every monomial touching x (variable 0) beats every x-free one.

    Decided from the weight structure: some row must weigh x before any
    row weighs a y column.  (Construction already guarantees the first
    nonzero weight in a column is positive, which is what makes this
    criterion exact.)
    """
    for row in order.rows:
        if any(row[1:]):
            return False
        if row[0]:
            return True
    return False


def parse_order_descriptor(text: str, weights) -> OrderSpec:
    """Build an ordering from a CLI descriptor.

    Grammar: ``lex`` | ``apery:j=<i>[,inner=<p-p-...>][,<lex|revlex>]``
    (1-based generator indices); ``weights`` is the generator list.  Block
    orderings for affine monoids come from :func:`block_lambda_order`.
    """
    text = text.strip()
    k = len(weights)
    if text == "lex":
        return lex_order(k + 1)
    if text.startswith("apery:"):
        j, inner, flavor = parse_apery_descriptor(text, k)
        return apery_order(k, j, weights, inner=inner, flavor=flavor)
    raise ValueError(f"unknown ordering descriptor {text!r}; expected lex or apery:j=<i>[,...]")


def parse_apery_descriptor(text: str, k: int) -> tuple[int, tuple[int, ...] | None, str]:
    """``(j, inner, flavor)`` of an ``apery:...`` descriptor for k generators.

    Only the syntax is checked; ``inner`` is None when left out, as in
    :func:`apery_order`, which checks the values.  With fewer than 10
    generators the dashes of ``inner`` may be left out (``inner=132``);
    from 10 on they are required.
    """
    text = text.strip()
    if not text.startswith("apery:"):
        raise ValueError(f"expected an apery:j=<i>[,...] descriptor, got {text!r}")
    j, inner, flavor = None, None, "lex"
    for part in text[len("apery:") :].split(","):
        part = part.strip()
        if part.startswith("j="):
            (j,) = _option_ints(part, [part[2:]], text)
        elif part.startswith("inner="):
            raw = part[len("inner=") :]
            if k >= 10 and "-" not in raw and len(raw) > 1:
                # digit splitting cannot tell inner=12 from y_12
                raise ValueError(
                    f"inner={raw} is ambiguous with {k} generators; separate indices with '-'"
                )
            inner = tuple(_option_ints(part, raw.split("-") if "-" in raw else raw, text))
        elif part in ("lex", "revlex"):
            flavor = part
        elif part:
            raise ValueError(f"unknown ordering option {part!r} in {text!r}")
    if j is None:
        raise ValueError(f"descriptor {text!r} is missing j=<index>")
    return j, inner, flavor


def _option_ints(part: str, pieces, text: str) -> list[int]:
    """``int`` of each piece of the option ``part``; a bad one names the option."""
    try:
        return [int(p) for p in pieces]
    except ValueError:
        name, _, value = part.partition("=")
        msg = f"ordering option {name}= takes integers, got {value!r} in {text!r}"
        raise ValueError(msg) from None
