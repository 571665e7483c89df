"""Matrix-defined total monomial orderings on exponent vectors.

An ordering is a stack of integer weight rows; monomials are compared by
the lexicographic order of their weight images down the rows.  Construction
verifies the two properties that make such a stack a usable monomial
ordering: the rows' common rational kernel meets Z^m only in 0 (totality),
and the first nonzero weight in every column is positive (each variable
exceeds 1, so reductions terminate).

Constructors cover plain lex, the four-layer elimination orderings used to
read Apery sets off a staircase, and the block orderings used for affine
monoids.  All weights are plain Python integers, so there is no overflow
to worry about anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInvariantError,
    InvalidLambdaError,
    InvalidPermutationError,
    LengthMismatchError,
)

Exponent = tuple[int, ...]

LESS, EQUAL, GREATER = -1, 0, 1


def _rational_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


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
        if _rational_rank(rows) != self.num_vars:
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


def lex_order(num_vars: int, label: str = "lex") -> OrderSpec:
    """Plain lexicographic ordering, first variable most significant."""
    rows = tuple(_unit(num_vars, c) for c in range(num_vars))
    return OrderSpec(num_vars=num_vars, rows=rows, label=label)


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


def block_lambda_order(d, generators, n, x_order: OrderSpec | None = None) -> OrderSpec:
    """Block ordering on Q[x_1..x_d, y_1..y_k] for an affine Apery computation.

    The x block is compared first (by ``x_order``, default lex).  Ties fall
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
    if x_order is None:
        x_rows = [_unit(m, c) for c in range(d)]
    else:
        if x_order.num_vars != d:
            raise ValueError(f"x_order must act on {d} variables")
        x_rows = [row + (0,) * k for row in x_order.rows]
    grading_rows = [
        tuple([0] * d + [g[i] for g in generators]) for i in range(d)
    ]
    revlex_rows = [_unit(m, d + p - 1, -1) for p in range(k, 1, -1)]
    rows = tuple(x_rows + grading_rows + revlex_rows)
    label = f"block:lambda={n},d={d}"
    return OrderSpec(num_vars=m, rows=rows, label=label)


def is_elimination_for_x(order: OrderSpec, num_x: int = 1) -> bool:
    """True iff every monomial touching the first num_x variables beats
    every monomial free of them.

    Decided from the weight structure: within the leading run of rows that
    vanish on all y columns, every x column must carry a nonzero weight.
    (Construction already guarantees the first nonzero weight in a column
    is positive, which is what makes this criterion exact.)
    """
    y_cols = range(num_x, order.num_vars)
    seen = [False] * num_x
    for row in order.rows:
        if any(row[c] for c in y_cols):
            break
        for c in range(num_x):
            if row[c]:
                seen[c] = True
        if all(seen):
            return True
    return all(seen)


def parse_order_descriptor(text: str, weights) -> OrderSpec:
    """Build an ordering from a CLI descriptor.

    Grammar: ``lex`` | ``apery:j=<i>[,inner=<p-p-...>][,<lex|revlex>]`` |
    ``block:lambda=<i-i-...>`` (1-based generator indices).  ``weights`` is
    the generator list fixing the ambient variable count; for the block
    form the generators must be coordinate tuples, and the ordering is
    built for the layout that puts the Lambda generators last.  With fewer
    than 10 generators the dashes of ``inner`` may be left out
    (``inner=132``); from 10 on they are required.
    """
    text = text.strip()
    k = len(weights)
    if text == "lex":
        return lex_order(k + 1)
    if text.startswith("block:lambda="):
        raw = text[len("block:lambda=") :]
        pieces = raw.split("-") if "-" in raw else raw.split(",")
        indices = sorted({int(p) - 1 for p in pieces if p})
        points = [tuple(g) if isinstance(g, (tuple, list)) else (g,) for g in weights]
        if any(i < 0 or i >= k for i in indices):
            raise InvalidLambdaError(f"Lambda indices out of range in {text!r}")
        d = len(points[0])
        reordered = [g for i, g in enumerate(points) if i not in indices]
        reordered += [points[i] for i in indices]
        return block_lambda_order(d, reordered, len(indices))
    if text.startswith("apery:"):
        j, inner, flavor = parse_apery_descriptor(text, k)
        return apery_order(k, j, weights, inner=inner, flavor=flavor)
    raise ValueError(f"unknown ordering descriptor {text!r}")


def parse_apery_descriptor(text: str, k: int) -> tuple[int, tuple[int, ...] | None, str]:
    """``(j, inner, flavor)`` of a stripped ``apery:...`` descriptor for k generators.

    Only the syntax is checked; ``inner`` is None when left out, as in
    :func:`apery_order`, which checks the values.
    """
    j, inner, flavor = None, None, "lex"
    for part in text[len("apery:") :].split(","):
        part = part.strip()
        if part.startswith("j="):
            j = int(part[2:])
        elif part.startswith("inner="):
            raw = part[len("inner=") :]
            if k >= 10 and "-" not in raw and len(raw) > 1:
                # digit splitting cannot tell inner=12 from y_12
                raise ValueError(
                    f"inner={raw} is ambiguous with {k} generators; separate indices with '-'"
                )
            pieces = raw.split("-") if "-" in raw else list(raw)
            inner = tuple(int(p) for p in pieces)
        elif part in ("lex", "revlex"):
            flavor = part
        elif part:
            raise ValueError(f"unknown ordering option {part!r} in {text!r}")
    if j is None:
        raise ValueError(f"descriptor {text!r} is missing j=<index>")
    return j, inner, flavor
