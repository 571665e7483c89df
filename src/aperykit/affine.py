"""Apery sets of pointed affine monoids through block orderings.

Generators live in Z^d with nonnegative coordinates (which makes the
monoid pointed and lets the defining binomials y_j - x^{a_j} generate the
kernel ideal directly).  Numerical monoids are the case d = 1: the
binomials come from the numerical route's own
:func:`aperykit.groebner.defining_binomials`.  Given a subset Lambda of
generators spanning the same rational cone, Ap(S, Lambda) = {a in S :
a - b not in S for all b in Lambda} is finite, and it equals the set of
weighted degrees of the staircase-complement points in the face where the
x variables and the Lambda variables all vanish, walked by the shared
:func:`aperykit.groebner.face_complement`.  The walk returns packed Z^d
degrees and packed points; this module unpacks both into tuples, its edge.

Cone containment is certified in integers: for each generator outside
Lambda, a nonnegative solution on r = rank Lambda linearly independent
Lambda generators (conic Caratheodory), found by the fraction-free
elimination of :func:`aperykit.orders.eliminate`, is cleared to integers
(u, v) with u * a_j = sum(v_i * lambda_i).  That is also what bounds the
face and makes the enumeration finite.  At most ``APERYKIT_MAX_SCAN``
column sets are tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .errors import ConeMismatchError, InternalInvariantError, ScanLimitError
from .groebner import (
    buchberger, defining_binomials, face_complement, pack_exponent, unpack_exponent,
)
from .orders import block_lambda_order, eliminate, integer_rank
from .semigroup import max_scan_limit

Point = tuple[int, ...]
Exponent = tuple[int, ...]


@dataclass(frozen=True)
class AffineMonoid:
    """Finitely generated submonoid of Z^d with coordinatewise >= 0 generators."""

    dim: int
    generators: tuple[Point, ...]

    def __post_init__(self):
        gens = tuple(tuple(int(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not gens:
            raise ValueError("at least one generator is required")
        if any(len(g) != self.dim for g in gens):
            raise ValueError(f"generators must live in Z^{self.dim}")
        if any(x < 0 for g in gens for x in g):
            raise ValueError("generator coordinates must be nonnegative")
        if any(all(x == 0 for x in g) for g in gens):
            raise ValueError("generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")


@dataclass(frozen=True)
class LambdaChoice:
    """A cone-spanning subset of generators, certified and reordered last.

    ``indices`` are 0-based positions into the original generator tuple.
    ``reordered`` lists the non-Lambda generators first (original order),
    then the Lambda generators, which is the layout the block ordering
    expects.  ``certificates`` maps each non-Lambda original position j to
    integers (u, v) with u >= 1, v >= 0 and u * a_j = sum(v_i * lambda_i).
    v / u is the solution on the first certifying set of rank-Lambda
    linearly independent Lambda generators (zero off that set), and u is
    the least integer that clears its denominators.
    """

    monoid: AffineMonoid
    indices: tuple[int, ...]
    reordered: tuple[Point, ...]
    certificates: dict[int, tuple[int, tuple[int, ...]]]


@dataclass(frozen=True)
class AffineAperyReport:
    """Ap(S, Lambda) with the normal-form exponent behind every point.

    Representations live in the reordered variable space (d x-variables,
    then non-Lambda y-variables, then Lambda variables).
    """

    monoid: AffineMonoid
    lambda_indices: tuple[int, ...]
    elements: tuple[Point, ...]
    representations: dict[Point, Exponent]
    order_used: str


def validate_lambda(M: AffineMonoid, indices) -> LambdaChoice:
    """Certify pos(S) = pos(Lambda) and fix the variable layout.

    With r = rank Lambda, a point of cone(Lambda) is a nonnegative
    combination of r linearly independent Lambda generators (conic
    Caratheodory).  The column sets B of r Lambda generators are tried in
    ``itertools.combinations`` order, each by one integer Gauss-Jordan of
    [Lambda_B | the pending generators]; a generator is certified by the
    first independent B where its unique solution t is consistent and
    nonnegative, as u = lcm of the reduced denominators of t and v = u * t.
    A generator no B certifies raises ConeMismatchError carrying it; more
    than ``APERYKIT_MAX_SCAN`` column sets raise ScanLimitError.
    """
    indices = tuple(sorted({int(i) for i in indices}))
    if not indices:
        raise ValueError("Lambda must be nonempty")
    if any(i < 0 or i >= len(M.generators) for i in indices):
        raise ValueError(f"Lambda indices out of range: {indices}")
    lam = [M.generators[i] for i in indices]
    others = [i for i in range(len(M.generators)) if i not in indices]
    certificates: dict[int, tuple[int, tuple[int, ...]]] = {}
    pending = others
    r = integer_rank(lam)
    limit = max_scan_limit()
    for tried, B in enumerate(combinations(range(len(lam)), r)):
        if not pending:
            break
        if tried == limit:
            raise ScanLimitError(f"Lambda column sets exceed APERYKIT_MAX_SCAN={limit}")
        rows = [
            [lam[i][c] for i in B] + [M.generators[j][c] for j in pending]
            for c in range(M.dim)
        ]
        pivots, rest = eliminate(rows, r)
        if len(pivots) < r:
            continue
        for col, j in enumerate(pending, start=r):
            if any(row[col] for row in rest):
                continue
            t = {B[c]: (row[col], row[c]) for c, row in pivots}
            if any(num * den < 0 for num, den in t.values()):
                continue
            u = lcm(*(abs(den) // gcd(num, den) for num, den in t.values()))
            v = tuple(u * t[i][0] // t[i][1] if i in t else 0 for i in range(len(lam)))
            check = tuple(
                sum(v_i * lam_g[c] for v_i, lam_g in zip(v, lam)) for c in range(M.dim)
            )
            if check != tuple(u * x for x in M.generators[j]):
                raise InternalInvariantError("cleared cone certificate does not verify")
            certificates[j] = (u, v)
        pending = [j for j in pending if j not in certificates]
    if pending:
        raise ConeMismatchError(M.generators[pending[0]])
    reordered = tuple(M.generators[i] for i in others) + tuple(lam)
    return LambdaChoice(
        monoid=M, indices=indices, reordered=reordered, certificates=certificates
    )


def apery_affine(
    M: AffineMonoid,
    lam: LambdaChoice | None = None,
    indices=None,
) -> AffineAperyReport:
    """Ap(S, Lambda) via the block ordering and its reduced basis.

    The staircase-complement points of the face where x and the Lambda
    variables vanish are walked by :func:`aperykit.groebner.face_complement`;
    each free coordinate is bounded by a pure-power corner whose existence
    follows from the cone certificates, and is checked.  The graded
    degrees of those points are exactly the Apery set.  A ``lam``
    certified for another monoid raises ValueError.
    """
    if lam is None:
        if indices is None:
            raise ValueError("either a LambdaChoice or indices must be given")
        lam = validate_lambda(M, indices)
    elif lam.monoid != M:
        raise ValueError("the LambdaChoice was certified for another monoid")
    d = M.dim
    reordered = lam.reordered
    k = len(reordered)
    n = len(lam.indices)
    order = block_lambda_order(d, reordered, n)
    basis = buchberger(defining_binomials(reordered, order), order)
    weights = [pack_exponent(a) for a in reordered[: k - n]]  # nonnegative: packed sums add
    walk = face_complement(basis, range(d, d + k - n), weights)
    m = basis.order.num_vars
    reps = {unpack_exponent(g, d): unpack_exponent(p, m) for g, p in walk.items()}
    return AffineAperyReport(
        monoid=M,
        lambda_indices=lam.indices,
        elements=tuple(sorted(reps)),
        representations=reps,
        order_used=order.label,
    )


def affine_members_bruteforce(M: AffineMonoid, bound: int) -> frozenset[Point]:
    """All Z>=0-combinations of the generators with coordinate sum <= bound.

    Breadth-first closure over generator additions; the oracle half of the
    affine cross-checks.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    origin = (0,) * M.dim
    seen = {origin}
    frontier = [origin]
    while frontier:
        point = frontier.pop()
        for g in M.generators:
            nxt = tuple(p + x for p, x in zip(point, g))
            if sum(nxt) <= bound and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
