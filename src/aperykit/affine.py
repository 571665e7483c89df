"""Apery sets of pointed affine monoids through block orderings.

Generators live in Z^d with nonnegative coordinates (which makes the
monoid pointed and lets the defining binomials y_j - x^{a_j} generate the
kernel ideal directly).  Given a subset Lambda of generators spanning the
same rational cone, Ap(S, Lambda) = {a in S : a - b not in S for all b in
Lambda} is finite, and it equals the set of weighted degrees of the
staircase-complement points in the face where the x variables and the
Lambda variables all vanish, walked by the numerical route's own
:func:`aperykit.groebner.face_complement`.

Cone containment is certified by exact Fourier-Motzkin elimination over
the rationals: for each generator outside Lambda it produces integers
(u, v) with u * a_j = sum(v_i * lambda_i), which is also what bounds the
face and makes the enumeration finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConeMismatchError, InternalInvariantError
from .groebner import Binomial, buchberger, face_complement, oriented
from .orders import OrderSpec, block_lambda_order

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
    (u, v) with u * a_j = sum(v_i * lambda_i).
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


def _fourier_motzkin_nonneg(columns, target):
    """Rational t >= 0 with sum(t_i * columns[i]) == target, or None.

    The equality system is split into <= pairs, variables are eliminated
    back to front, and a witness is rebuilt by picking the largest lower
    bound at every level (feasibility of each interval is guaranteed by
    the elimination).  Everything is a Fraction; nothing is rounded.
    """
    n = len(columns)
    d = len(target)
    # rows: (coeffs, const) meaning sum(c_i t_i) <= const
    rows: list[tuple[list[Fraction], Fraction]] = []
    for c in range(d):
        coeffs = [Fraction(col[c]) for col in columns]
        rows.append((coeffs, Fraction(target[c])))
        rows.append(([-x for x in coeffs], Fraction(-target[c])))
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(-1)
        rows.append((coeffs, Fraction(0)))

    levels = [rows]
    for var in range(n - 1, -1, -1):
        current = levels[-1]
        lowers, uppers, rest = [], [], []
        for coeffs, const in current:
            c = coeffs[var]
            if c > 0:
                uppers.append(([x / c for x in coeffs], const / c))
            elif c < 0:
                lowers.append(([x / -c for x in coeffs], const / -c))
            else:
                rest.append((coeffs, const))
        for lo_coeffs, lo_const in lowers:
            for up_coeffs, up_const in uppers:
                # -t_var <= lo implies t_var >= -lo; combine with t_var <= up
                coeffs = [u + l for u, l in zip(up_coeffs, lo_coeffs)]
                coeffs[var] = Fraction(0)
                rest.append((coeffs, up_const + lo_const))
        levels.append(rest)

    if any(const < 0 for coeffs, const in levels[-1] if not any(coeffs)):
        return None
    solution = [Fraction(0)] * n
    for var in range(n):
        level = levels[n - 1 - var]  # constraints over t_0..t_var
        best = Fraction(0)
        for coeffs, const in level:
            c = coeffs[var]
            if c < 0:
                bound = (sum(a * b for a, b in zip(coeffs, solution)) - coeffs[var] * solution[var] - const) / -c
                if bound > best:
                    best = bound
        solution[var] = best
        for coeffs, const in level:
            if coeffs[var] > 0:
                slack = const - sum(a * b for a, b in zip(coeffs, solution))
                if slack < 0:
                    raise InternalInvariantError("Fourier-Motzkin witness escaped its interval")
    return solution


def validate_lambda(M: AffineMonoid, indices) -> LambdaChoice:
    """Certify pos(S) = pos(Lambda) and fix the variable layout.

    For every generator outside Lambda an exact rational solution of
    a_j = sum(t_i * lambda_i), t >= 0 is found and cleared to integers;
    a generator with no such solution raises ConeMismatchError carrying it.
    """
    indices = tuple(sorted({int(i) for i in indices}))
    if not indices:
        raise ValueError("Lambda must be nonempty")
    if any(i < 0 or i >= len(M.generators) for i in indices):
        raise ValueError(f"Lambda indices out of range: {indices}")
    lam = [M.generators[i] for i in indices]
    others = [i for i in range(len(M.generators)) if i not in indices]
    certificates: dict[int, tuple[int, tuple[int, ...]]] = {}
    for j in others:
        t = _fourier_motzkin_nonneg(lam, M.generators[j])
        if t is None:
            raise ConeMismatchError(M.generators[j])
        u = lcm(*(x.denominator for x in t)) if t else 1
        v = tuple(int(x * u) for x in t)
        check = tuple(
            sum(v_i * lam_g[c] for v_i, lam_g in zip(v, lam)) for c in range(M.dim)
        )
        if check != tuple(u * x for x in M.generators[j]):
            raise InternalInvariantError("cleared cone certificate does not verify")
        certificates[j] = (u, v)
    reordered = tuple(M.generators[i] for i in others) + tuple(lam)
    return LambdaChoice(
        monoid=M, indices=indices, reordered=reordered, certificates=certificates
    )


def affine_ideal_generators(M: AffineMonoid, reordered, order: OrderSpec) -> list[Binomial]:
    """Defining binomials y_p - x^{a_p} in the d + k variable layout."""
    d = M.dim
    k = len(reordered)
    m = d + k
    out = []
    for p, a in enumerate(reordered):
        x_side = tuple(a[c] if c < d else 0 for c in range(m))
        y_side = tuple(1 if c == d + p else 0 for c in range(m))
        b = oriented(x_side, y_side, order)
        if b is None:
            raise InternalInvariantError("degenerate affine defining binomial")
        out.append(b)
    return out


def graded_degree(v: Exponent, d: int, reordered) -> Point:
    """Z^d degree of a monomial: x contributes itself, y_p contributes a_p."""
    total = list(v[:d])
    for p, a in enumerate(reordered):
        e = v[d + p]
        if e:
            for c in range(d):
                total[c] += e * a[c]
    return tuple(total)


def apery_affine(
    M: AffineMonoid,
    lam: LambdaChoice | None = None,
    indices=None,
    x_order: OrderSpec | None = None,
) -> AffineAperyReport:
    """Ap(S, Lambda) via the block ordering and its reduced basis.

    The staircase-complement points of the face where x and the Lambda
    variables vanish are walked by :func:`aperykit.groebner.face_complement`;
    each free coordinate is bounded by a pure-power corner whose existence
    follows from the cone certificates, and is checked.  The graded
    degrees of those points are exactly the Apery set.
    """
    if lam is None:
        if indices is None:
            raise ValueError("either a LambdaChoice or indices must be given")
        lam = validate_lambda(M, indices)
    d = M.dim
    reordered = lam.reordered
    k = len(reordered)
    n = len(lam.indices)
    order = block_lambda_order(d, reordered, n, x_order=x_order)
    basis = buchberger(affine_ideal_generators(M, reordered, order), order)
    reps = face_complement(basis, range(d, d + k - n), lambda v: graded_degree(v, d, reordered))
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
