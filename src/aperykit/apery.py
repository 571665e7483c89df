"""Apery sets, gap classification, extremal elements and the type set,
all read off reduced bases of the defining binomial ideal.

The central fact: under an elimination ordering for x, the normal form of
x^l is a monomial whose exponent vector tells you where l lives.  A
positive x-coordinate means l is a gap; an x-free exponent encodes a
factorization of l over the generators.  Under the four-layer orderings
of :func:`aperykit.orders.apery_order` more is true: l belongs to
Ap(S, a_j) exactly when the normal form of x^l avoids both x and y_j.
That equivalence is what this module executes, and what the oracle-based
tests validate from the definitions.  Only :func:`apery_delta` turns a
choice of ordering into a basis; its report carries that basis, and
extremal sets are read off the report.  The face walk is
:mod:`aperykit.groebner`'s, shared with the affine route.

The read-off stays on packed exponent vectors (one integer per point, see
:mod:`aperykit.groebner`) from the walk through the report's invariant
checks to :func:`extremal_set`; a report unpacks its points into tuples
only when ``representations`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import NamedTuple

from .errors import InternalInvariantError, OrderNotEliminationError, ScanLimitError
from .groebner import (
    GroebnerBasis, buchberger, face_complement, field_mask, ideal_generators, packed_degrees,
    reducer_for, unpack_exponent,
)
# unused here, kept bound: perfbench/spans.py counts calls through this name
from .groebner import divides  # noqa: F401
from .orders import apery_order, is_elimination_for_x
from .semigroup import NumericalSemigroup, max_scan_limit

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class AperyReport:
    """Ap(S, a_j) with, per element, its normal-form exponent vector.

    ``points`` maps each element to that vector packed (field 0 is x,
    field i is y_i); ``representations`` is the same map with the vectors
    unpacked into tuples, built on first read and kept out of equality and
    repr.  Representations are x-free and y_j-free by construction; the
    weighted degree of each representation recovers the element itself.
    ``basis`` is the reduced basis they were read off (left out of equality
    and repr).
    """

    generators: tuple[int, ...]
    wrt: int
    elements: tuple[int, ...]
    points: dict[int, int]
    order_used: str
    basis: GroebnerBasis | None = field(default=None, compare=False, repr=False)

    @cached_property
    def representations(self) -> dict[int, Exponent]:
        m = len(self.generators) + 1
        return {element: unpack_exponent(v, m) for element, v in self.points.items()}


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


# (basis, generators) of the last pair _require_basis_of passed
_last_checked: tuple = (None, None)


def _require_basis_of(S: NumericalSemigroup, basis: GroebnerBasis) -> None:
    """Raise unless ``basis`` eliminates x and generates the toric ideal of S.

    A binomial lies in that ideal iff it is S-homogeneous, and nested toric
    ideals of equal height are equal, so homogeneous elements in the k + 1
    variables of S pin the monoid.  The last pair that passed is kept, as
    ``reducer_for`` keeps its last basis: read-offs come in runs on one basis.
    """
    global _last_checked
    gens = S.generators
    held, held_gens = _last_checked
    if held is basis and held_gens == gens:
        return
    if not is_elimination_for_x(basis.order):
        raise OrderNotEliminationError(f"ordering {basis.order.label!r} does not eliminate x")
    if basis.order.num_vars != len(gens) + 1:
        raise ValueError(f"supplied basis is not {gens}-homogeneous: built for another monoid")
    degrees = packed_degrees(chain.from_iterable(basis.pairs), gens)  # lead, trail, lead, ..
    if degrees[::2] != degrees[1::2]:
        raise ValueError(f"supplied basis is not {gens}-homogeneous: built for another monoid")
    _last_checked = (basis, gens)


def _x_powers(basis: GroebnerBasis, scan: str):
    """Yield (l, packed normal form of x^l) for l = 0 .. APERYKIT_MAX_SCAN.

    Each form is the last one times x, rewritten; reading on raises.
    """
    reducer = reducer_for(basis)
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
    exactly when its x-coordinate vanishes.  A basis of another monoid raises.
    """
    _require_basis_of(S, basis)
    if not 0 <= l <= max_scan_limit():
        raise ValueError(f"l must be in 0..APERYKIT_MAX_SCAN, got {l}")
    m = basis.order.num_vars
    e = unpack_exponent(reducer_for(basis).reduce_packed(l), m)  # x^l packs to the integer l
    return Classification(in_monoid=e[0] == 0, exponent=e)


def gaps_via_groebner(S: NumericalSemigroup, basis: GroebnerBasis) -> list[int]:
    """Gap list recovered by classifying x^l for l = 1, 2, ... off ``basis``.

    The scan stops after a_1 consecutive members, past which every integer
    is a member, so no second basis or oracle call is needed to bound it.
    """
    _require_basis_of(S, basis)
    x_field = field_mask((0,))
    out = []
    for l, v in _x_powers(basis, "gap"):
        if v & x_field:
            out.append(l)
        elif l - (out[-1] if out else 0) >= S.generators[0]:
            return out


def _delta_scan(S, j, basis) -> dict[int, int]:
    """Walk l = 0, 1, 2, ... collecting the Apery elements of a_j.

    An element is recorded when the normal form of x^l avoids x and y_j.
    One element per residue class mod a_j exists, so the walk stops after
    a_j hits; a repeated residue class would falsify the theory and raises.
    """
    aj = S.generators[j - 1]
    face_mask = field_mask((0, j))
    found: dict[int, tuple[int, int]] = {}
    for l, v in _x_powers(basis, "Apery"):
        if v & face_mask == 0:
            r = l % aj
            if r in found:
                raise InternalInvariantError(
                    f"residue class {r} mod {aj} filled twice during the scan"
                )
            found[r] = (l, v)
            if len(found) == aj:
                return dict(found.values())


def apery_delta(
    S: NumericalSemigroup,
    j: int,
    inner=None,
    flavor: str = "lex",
    method: str = "direct",
    basis: GroebnerBasis | None = None,
) -> AperyReport:
    """Ap(S, a_j) computed through a reduced basis under an Apery ordering.

    ``inner``/``flavor`` choose the tie-break layer of the ordering; the
    element set provably does not depend on them, only the representations
    do.  ``method="direct"`` (default) walks the staircase-complement face
    x = y_j = 0 and reads each point's degree; ``method="scan"``, the
    classification route of the paper, classifies x^l for increasing l
    until every residue class mod a_j is filled, and serves as the
    cross-check.  Both return, per degree, the unique standard monomial on
    that face, so elements and representations agree.  A prebuilt
    ``basis`` for the matching ordering and monoid (else ValueError) skips
    the Buchberger run; either way the report carries the basis it used.
    """
    gens = S.generators
    k = len(gens)
    order = apery_order(k, j, gens, inner=inner, flavor=flavor)
    if method not in ("scan", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if basis is None:
        basis = buchberger(ideal_generators(S, order), order)
    elif basis.order != order:
        raise ValueError(
            f"supplied basis was built under weight rows {basis.order.rows}, "
            f"need {order.label!r} with rows {order.rows}"
        )
    else:
        _require_basis_of(S, basis)
    if method == "scan":
        points = _delta_scan(S, j, basis)
    else:
        free_cols = [c for c in range(1, k + 1) if c != j]
        points = face_complement(basis, free_cols, [gens[c - 1] for c in free_cols])
    aj = gens[j - 1]
    elements = tuple(sorted(points))
    limit = max_scan_limit()
    if elements[-1] > limit:  # where the scan stops, so both methods read one budget
        raise ScanLimitError(f"Apery scan exceeded APERYKIT_MAX_SCAN={limit}")
    _check_report_invariants(gens, aj, elements, points, j)
    return AperyReport(
        generators=gens,
        wrt=aj,
        elements=elements,
        points=points,
        order_used=order.label,
        basis=basis,
    )


def _check_report_invariants(gens, aj, elements, points, j):
    """Raise unless ``points`` ({element: packed point}) is a valid Ap(S, a_j).

    Per element: the point avoids x and y_j (one mask on the OR of all
    points, then a search for the culprit), and its degree, computed from
    the point alone by ``packed_degrees``, is the element.
    """
    if len(elements) != aj:
        raise InternalInvariantError(
            f"expected {aj} Apery elements, found {len(elements)}"
        )
    if len({e % aj for e in elements}) != aj or 0 not in elements:
        raise InternalInvariantError("Apery residues are not a full system")
    face_mask = field_mask((0, j))
    if reduce(or_, points.values(), 0) & face_mask:
        element = next(e for e, v in points.items() if v & face_mask)
        raise InternalInvariantError(f"representation of {element} touches x or y_j")
    degrees = packed_degrees(points.values(), gens)
    if degrees != list(points):
        element, degree = next((e, d) for e, d in zip(points, degrees) if e != d)
        raise InternalInvariantError(f"representation of {element} has degree {degree}")


def extremal_set(
    S: NumericalSemigroup, report: AperyReport, basis: GroebnerBasis
) -> list[int]:
    """Apery elements whose representation admits no growth inside the face.

    N stays when bumping any non-eliminated coordinate y_i of its
    representation rep(N) lands inside the staircase.  The report holds
    every standard monomial of the face x = y_k = 0, one per degree, and
    they are closed downward: if the representation r' of N + a_i has
    y_i >= 1, then r' - y_i is standard of degree N, so it is rep(N).
    So the bump is standard iff N + a_i is in the report with y_i >= 1,
    and the elements that are not extremal are the w - a_i over report
    elements w whose packed point has a nonzero field i: one pass over the
    points per column, and no tuple is built.
    """
    if report.order_used != basis.order.label:
        raise ValueError("report and basis were built under different orderings")
    gens = S.generators
    if report.generators != gens:
        raise ValueError(f"report was built for {report.generators}, not {gens}")
    if report.wrt != gens[-1]:
        raise ValueError("extremal sets are defined with respect to a_k")
    points = report.points.items()
    grown = set()
    for i, a in enumerate(gens[:-1], start=1):
        column = field_mask((i,))
        grown.update([w - a for w, v in points if v & column])
    return [element for element in report.elements if element not in grown]


def _rotation_sequence(k: int, i: int) -> tuple[int, ...]:
    """Tie-break sequence whose reverse-lex reading makes y_i decisive."""
    return tuple([p for p in range(1, k) if p != i] + [i])


def type_set(S: NumericalSemigroup) -> TypeReport:
    """Type set as the intersection of extremal sets over k-1 orderings.

    For each i < k the Apery ordering with the reverse-lex layer ending at
    y_i flushes out pretenders N with N + a_i still in the Apery set; the
    intersection over all i is exactly the type set.  The type set lies in
    every extremal set, so further orderings could not change it.
    """
    gens = S.generators
    k = len(gens)
    if k < 2:
        raise ValueError("the type set needs at least two generators")
    ak = gens[-1]
    extremal: dict[str, tuple[int, ...]] = {}
    running: set[int] | None = None
    for i in range(1, k):
        report = apery_delta(S, k, inner=_rotation_sequence(k, i), flavor="revlex")
        part = extremal_set(S, report, report.basis)
        extremal[report.order_used] = tuple(part)
        running = set(part) if running is None else running & set(part)
    ts = tuple(sorted(running))
    return TypeReport(
        type_set=ts,
        pf=tuple(m - ak for m in ts),
        type=len(ts),
        gorenstein=len(ts) == 1,
        extremal_sets=extremal,
    )
