"""Apery sets, gap classification, extremal elements and the type set,
all read off reduced bases of the defining binomial ideal.

The central fact: under an elimination ordering for x, the normal form of
x^l is a monomial whose exponent vector tells you where l lives.  A
positive x-coordinate means l is a gap; an x-free exponent encodes a
factorization of l over the generators.  Under the four-layer orderings
of :func:`aperykit.orders.apery_order` more is true: l belongs to
Ap(S, a_j) exactly when the normal form of x^l avoids both x and y_j.
That equivalence is what this module executes, and what the oracle-based
tests validate from the definitions.  The face walk and the corner test
are :mod:`aperykit.groebner`'s, shared with the affine route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalInvariantError, OrderNotEliminationError, ScanLimitError
from .groebner import (
    GroebnerBasis, PackedReducer, buchberger, corner_test, face_complement, field_mask,
    field_step, ideal_generators, pack_exponent, phi_degree, unpack_exponent,
)
# unused here, kept bound: perfbench/spans.py counts calls through this name
from .groebner import divides  # noqa: F401
from .orders import apery_order, is_elimination_for_x
from .semigroup import NumericalSemigroup, max_scan_limit

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class AperyReport:
    """Ap(S, a_j) with, per element, its normal-form exponent vector.

    Representations are x-free and y_j-free by construction; the weighted
    degree of each representation recovers the element itself.
    """

    generators: tuple[int, ...]
    wrt: int
    elements: tuple[int, ...]
    representations: dict[int, Exponent]
    order_used: str


@dataclass(frozen=True)
class TypeReport:
    """Type set, pseudo-Frobenius numbers and the per-ordering extremal sets."""

    type_set: tuple[int, ...]
    pf: tuple[int, ...]
    type: int
    gorenstein: bool
    extremal_sets: dict[str, tuple[int, ...]]


class Classification(NamedTuple):
    in_monoid: bool
    exponent: Exponent


def _require_elimination(basis: GroebnerBasis) -> None:
    if not is_elimination_for_x(basis.order):
        raise OrderNotEliminationError(
            f"ordering {basis.order.label!r} does not eliminate x"
        )


def _x_powers(basis: GroebnerBasis, scan: str):
    """Yield (l, packed normal form of x^l) for l = 0 .. APERYKIT_MAX_SCAN.

    Each form is the last one times x, rewritten; reading on raises.
    """
    reducer = PackedReducer.for_basis(basis)
    limit = max_scan_limit()
    v = 0
    for l in range(limit + 1):
        if l:
            v = reducer.reduce_packed(v + 1)
        yield l, v
    raise ScanLimitError(f"{scan} scan exceeded APERYKIT_MAX_SCAN={limit}")


def classify(S: NumericalSemigroup, l: int, basis: GroebnerBasis) -> Classification:
    """Decide membership of l via the normal form of x^l.

    Returns the normal-form exponent alongside the verdict: membership
    exactly when its x-coordinate vanishes.
    """
    _require_elimination(basis)
    if not 0 <= l <= max_scan_limit():
        raise ValueError(f"l must be in 0..APERYKIT_MAX_SCAN, got {l}")
    m = basis.order.num_vars
    reducer = PackedReducer.for_basis(basis)
    e = unpack_exponent(reducer.reduce_packed(l), m)  # x^l packs to the integer l
    return Classification(in_monoid=e[0] == 0, exponent=e)


def gaps_via_groebner(S: NumericalSemigroup, basis: GroebnerBasis) -> list[int]:
    """Gap list recovered by classifying x^l for l = 1, 2, ... off ``basis``.

    The scan stops after a_1 consecutive members, past which every integer
    is a member, so no second basis or oracle call is needed to bound it.
    """
    _require_elimination(basis)
    x_field = field_mask((0,))
    out = []
    for l, v in _x_powers(basis, "gap"):
        if v & x_field:
            out.append(l)
        elif l - (out[-1] if out else 0) >= S.generators[0]:
            return out


def _delta_scan(S, j, basis) -> dict[int, Exponent]:
    """Walk l = 0, 1, 2, ... collecting the Apery elements of a_j.

    An element is recorded when the normal form of x^l avoids x and y_j.
    One element per residue class mod a_j exists, so the walk stops after
    a_j hits; a repeated residue class would falsify the theory and raises.
    """
    aj = S.generators[j - 1]
    m = basis.order.num_vars
    face_mask = field_mask((0, j))
    found: dict[int, tuple[int, Exponent]] = {}
    for l, v in _x_powers(basis, "Apery"):
        if v & face_mask == 0:
            r = l % aj
            if r in found:
                raise InternalInvariantError(
                    f"residue class {r} mod {aj} filled twice during the scan"
                )
            found[r] = (l, unpack_exponent(v, m))
            if len(found) == aj:
                return {element: e for element, e in found.values()}


def apery_delta(
    S: NumericalSemigroup,
    j: int,
    inner=None,
    flavor: str = "lex",
    method: str = "scan",
    basis: GroebnerBasis | None = None,
) -> AperyReport:
    """Ap(S, a_j) computed through a reduced basis under an Apery ordering.

    ``inner``/``flavor`` choose the tie-break layer of the ordering; the
    element set provably does not depend on them, only the representations
    do.  ``method="scan"`` (default) classifies x^l for increasing l until
    every residue class mod a_j is filled; ``method="direct"`` enumerates
    the staircase-complement face instead (same answer, different route).
    A prebuilt ``basis`` for the matching ordering may be supplied to skip
    the Buchberger run.
    """
    gens = S.generators
    k = len(gens)
    if not 1 <= j <= k:
        raise ValueError(f"j must be in 1..{k}, got {j}")
    if method not in ("scan", "direct"):
        raise ValueError(f"unknown method {method!r}")
    order = apery_order(k, j, gens, inner=inner, flavor=flavor)
    if basis is None:
        basis = buchberger(ideal_generators(S, order), order)
    elif basis.order.label != order.label:
        raise ValueError(
            f"supplied basis was built for {basis.order.label!r}, need {order.label!r}"
        )
    if method == "scan":
        reps = _delta_scan(S, j, basis)
    else:
        free_cols = [c for c in range(1, k + 1) if c != j]
        reps = face_complement(basis, free_cols, lambda v: phi_degree(v, gens))
    aj = gens[j - 1]
    elements = tuple(sorted(reps))
    _check_report_invariants(gens, aj, elements, reps, j)
    return AperyReport(
        generators=gens,
        wrt=aj,
        elements=elements,
        representations=reps,
        order_used=order.label,
    )


def _check_report_invariants(gens, aj, elements, reps, j):
    if len(elements) != aj:
        raise InternalInvariantError(
            f"expected {aj} Apery elements, found {len(elements)}"
        )
    if len({e % aj for e in elements}) != aj or 0 not in elements:
        raise InternalInvariantError("Apery residues are not a full system")
    for element, rep in reps.items():
        if rep[0] != 0 or rep[j] != 0:
            raise InternalInvariantError(f"representation of {element} touches x or y_j")
        if phi_degree(rep, gens) != element:
            raise InternalInvariantError(
                f"representation of {element} has degree {phi_degree(rep, gens)}"
            )


def extremal_set(
    S: NumericalSemigroup, report: AperyReport, basis: GroebnerBasis
) -> list[int]:
    """Apery elements whose representation admits no growth inside the face.

    N stays when bumping any non-eliminated coordinate of its normal-form
    exponent lands inside the staircase, i.e. the bumped vector is
    divisible by a corner.  Only corner-divisibility is consulted, one
    check per coordinate per element.
    """
    if report.order_used != basis.order.label:
        raise ValueError("report and basis were built under different orderings")
    if report.wrt != S.generators[-1]:
        raise ValueError("extremal sets are defined with respect to a_k")
    covered = corner_test(basis)
    steps = [field_step(i) for i in range(1, len(S.generators))]
    out = []
    for element in report.elements:
        v = pack_exponent(report.representations[element])
        if all(covered(v + s) for s in steps):
            out.append(element)
    return out


def _rotation_sequence(k: int, i: int) -> tuple[int, ...]:
    """Tie-break sequence whose reverse-lex reading makes y_i decisive."""
    return tuple([p for p in range(1, k) if p != i] + [i])


def type_set(S: NumericalSemigroup, extra_orders=()) -> TypeReport:
    """Type set as the intersection of extremal sets over k-1 orderings.

    For each i < k the Apery ordering with the reverse-lex layer ending at
    y_i flushes out pretenders N with N + a_i still in the Apery set; the
    intersection over all i is exactly the type set.  ``extra_orders`` may
    add more (inner, flavor) tie-break choices to intersect; they cannot
    change the result, since the type set is contained in every extremal
    set, but they are useful for cross-checking.
    """
    gens = S.generators
    k = len(gens)
    if k < 2:
        raise ValueError("the type set needs at least two generators")
    ak = gens[-1]
    extremal: dict[str, tuple[int, ...]] = {}
    running: set[int] | None = None
    choices = [(_rotation_sequence(k, i), "revlex") for i in range(1, k)]
    choices.extend(extra_orders)
    for inner, flavor in choices:
        order = apery_order(k, k, gens, inner=inner, flavor=flavor)
        basis = buchberger(ideal_generators(S, order), order)
        report = apery_delta(S, k, inner=inner, flavor=flavor, basis=basis)
        part = extremal_set(S, report, basis)
        extremal[order.label] = tuple(part)
        running = set(part) if running is None else running & set(part)
    ts = tuple(sorted(running))
    return TypeReport(
        type_set=ts,
        pf=tuple(m - ak for m in ts),
        type=len(ts),
        gorenstein=len(ts) == 1,
        extremal_sets=extremal,
    )
