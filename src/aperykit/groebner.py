"""Buchberger's algorithm specialized to pure-difference binomial ideals.

Ideals here are generated by differences of monomials, so every object in
sight stays a pair of exponent vectors: S-polynomials of binomials are
binomials, and reducing a binomial amounts to rewriting its two monomials
independently until neither is divisible by a leading exponent.

Internally a monomial lives in a single Python integer: field i is the
i-th little-endian unsigned 64-bit word, so one cached ``struct.Struct``
packs or unpacks a whole vector, and divisibility tests and lead -> trail
rewrites are two or three big-integer operations.  The top bit of each
field acts as a borrow guard: q divides v exactly when
``((v | HIGH) - q) & HIGH == HIGH``.  Exponents are asserted to be far
below the field width on entry, and rewriting never increases the
weighted degree of a monomial, so the fields cannot overflow.  A reduced
basis is held packed too: ``GroebnerBasis.pairs`` is the (lead, trail)
pairs the loop ends with, a reducer takes them as they are, and tuple
``elements`` and ``corners`` are unpacked only when read.  The rest of the
public API speaks plain integer tuples, except the staircase read-off:
``face_complement`` returns packed points and ``packed_degrees`` reads
their degrees, so a read-off stays packed up to the edge that prints or
returns tuples.
Only this module knows the field layout and the divisibility indexes on
it (reducer leads by support, face corners by field); it also holds the
one builder of defining binomials (``defining_binomials``, for generators
in any Z^d) and the one staircase face walk (``face_complement``).
Standardness is read off the basis's own reducer
(``PackedReducer.reducible``), not off a second index of its corners.

``buchberger`` has one insert path for inputs and S-pairs alike: both
sides are rewritten packed by the loop's own reducer, the lead is chosen
with one ``compare``, and elements whose lead a newer lead divides are
always retired, so the leads stay an antichain and no separate
interreduction pass is needed.  The loop holds only its leads, a heap of
queued pairs and its own reducer, the one store of unretired elements,
whose per-support lead lists ``retire`` prunes and ``append`` extends in
place.  Pairs are always pruned by the coprime and chain criteria, the
chain check against later leads running when a pair is popped; a reduced
basis is unique, so pruning changes only time.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import mul, or_

from .errors import InternalInvariantError, LengthMismatchError
from .orders import EQUAL, GREATER, OrderSpec, compare

Exponent = tuple[int, ...]

_FIELD_BITS = 64
_GUARD = _FIELD_BITS - 1
_FIELD_LIMIT = 1 << 62


@dataclass(frozen=True)
class Binomial:
    """monomial(lead) - monomial(trail) with lead strictly above trail."""

    lead: Exponent
    trail: Exponent


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis: packed ``(lead, trail)`` pairs, sorted by lead.

    ``pairs`` is the whole value, as ``buchberger`` holds it.  ``elements``
    (each pair unpacked into a tuple ``Binomial``) and ``corners`` (the set
    of tuple leads) are views built on first read, outside equality and repr.
    Each pair must pack ``order.num_vars`` fields below 2^62, else
    ``ValueError``.
    """

    order: OrderSpec
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = self.order.num_vars
        values = list(chain.from_iterable(self.pairs))
        # bits 62 and 63 of each field, and every bit past field m
        spare = _high_mask(m) | _high_mask(m) >> 1 | -1 << (m * _FIELD_BITS)
        if values and (min(values) < 0 or reduce(or_, values) & spare):
            raise ValueError(f"basis pairs must pack {m} exponents below 2^62 each")

    @cached_property
    def elements(self) -> tuple[Binomial, ...]:
        m = self.order.num_vars
        return tuple(
            Binomial(unpack_exponent(q, m), unpack_exponent(t, m)) for q, t in self.pairs
        )

    @cached_property
    def corners(self) -> frozenset[Exponent]:
        return frozenset(b.lead for b in self.elements)


def divides(q: Exponent, v: Exponent) -> bool:
    """Componentwise q <= v, i.e. monomial(q) divides monomial(v)."""
    for a, b in zip(q, v):
        if a > b:
            return False
    return True


def oriented(u: Exponent, v: Exponent, order: OrderSpec) -> Binomial | None:
    """Binomial with the larger monomial first, or None when u == v."""
    c = compare(order, u, v)
    if c == EQUAL:
        return None
    return Binomial(u, v) if c == GREATER else Binomial(v, u)


def defining_binomials(points, order: OrderSpec) -> list[Binomial]:
    """Binomials y_p - x^{a_p} of the kernel ideal, one per point a_p in Z^d.

    The variables are x_1..x_d, then y_1..y_k, so d is ``order.num_vars``
    less the number of points; numerical monoids are the case d = 1.  The
    orientation is fixed by ``order`` (under any elimination ordering for
    x the x side leads).
    """
    m = order.num_vars
    k = len(points)
    # the two sides differ in the y_p field, so ``oriented`` never gives None
    return [
        oriented(tuple(a) + (0,) * k, (0,) * (m - k + p) + (1,) + (0,) * (k - p - 1), order)
        for p, a in enumerate(points)
    ]


def ideal_generators(S, order: OrderSpec) -> list[Binomial]:
    """Defining binomials of the numerical monoid S, its generators as points of Z^1."""
    return defining_binomials([(a,) for a in S.generators], order)


@lru_cache(maxsize=None)
def _layout(m: int) -> struct.Struct:
    """The packed layout of m fields as bytes: one little-endian uint64 each."""
    return struct.Struct(f"<{m}Q")


def pack_exponent(v) -> int:
    """Stack exponents into one integer, 64 bits per variable."""
    v = tuple(v)
    if v and not 0 <= min(v) <= max(v) < _FIELD_LIMIT:
        bad = next(e for e in v if not 0 <= e < _FIELD_LIMIT)
        raise ValueError(f"exponent {bad} out of packable range")
    return int.from_bytes(_layout(len(v)).pack(*v), "little")


def unpack_exponent(x: int, m: int) -> Exponent:
    return _layout(m).unpack(x.to_bytes(_FIELD_BITS // 8 * m, "little"))


def _high_mask(m: int) -> int:
    return sum(1 << (i * _FIELD_BITS + _GUARD) for i in range(m))


def _support(v: int, high: int) -> int:
    """Guard bits of the nonzero fields of packed v: (f | 2^63) - 1 keeps bit 63 iff f > 0."""
    return ((v | high) - (high >> _GUARD)) & high


class PackedReducer:
    """Reusable rewriting engine for repeated queries against one basis.

    Holds the basis as packed (lead, trail, lead support) items;
    ``reduce_packed`` rewrites with the first lead in item order that divides the monomial
    and restarts after each substitution, which keeps results
    deterministic.  Each substitution strictly lowers the monomial in the
    basis ordering, so the walk terminates; ``reducible`` only asks if a
    lead divides.  Only leads whose support lies inside the monomial's can
    divide it, so both scan only those: one list per support, in item
    order, built on first use and stored whole (a race costs at most a
    rebuild).  ``append`` and ``retire`` change ``items`` and update every
    cached list in place to equal its rebuild, so a growing basis keeps its
    index; only a reducer that one caller owns (Buchberger's) is changed.
    """

    __slots__ = ("m", "high", "items", "by_support")

    def __init__(self, m: int, items):
        self.m = m
        self.high = high = _high_mask(m)
        self.items = [(q, t, _support(q, high)) for q, t in items]
        self.by_support: dict[int, list[tuple[int, int]]] = {}

    @classmethod
    def for_basis(cls, basis: "GroebnerBasis") -> "PackedReducer":
        """The reducer of ``basis``: its packed pairs as items, in basis order."""
        return cls(basis.order.num_vars, basis.pairs)

    def _candidates(self, v: int) -> list[tuple[int, int]]:
        """The (lead, trail) items whose lead support lies inside packed v's."""
        key = _support(v, self.high)
        candidates = self.by_support.get(key)
        if candidates is None:
            candidates = [(q, t) for q, t, s in self.items if s & key == s]
            self.by_support[key] = candidates
        return candidates

    def append(self, q: int, t: int) -> None:
        """Add the item (q, t) last, and to every cached list whose key holds q's support."""
        s = _support(q, self.high)
        self.items.append((q, t, s))
        for key, candidates in self.by_support.items():
            if s & key == s:
                candidates.append((q, t))

    def retire(self, u: int) -> None:
        """Drop the items whose lead u divides; only lists whose key holds u's support hold one."""
        high = self.high
        su = _support(u, high)
        self.items = [it for it in self.items if ((it[0] | high) - u) & high != high]
        for key, candidates in self.by_support.items():
            if su & key == su:
                candidates[:] = [it for it in candidates if ((it[0] | high) - u) & high != high]

    def reduce_packed(self, v: int) -> int:
        high = self.high
        while True:
            for q, t in self._candidates(v):
                if ((v | high) - q) & high == high:
                    v += t - q
                    break
            else:
                return v

    def reducible(self, v: int) -> bool:
        """True iff some lead divides packed v, i.e. monomial(v) is not standard."""
        high = self.high
        return any(((v | high) - q) & high == high for q, _ in self._candidates(v))

    def reduce_exponent(self, v: Exponent) -> Exponent:
        return unpack_exponent(self.reduce_packed(pack_exponent(v)), self.m)


def buchberger(gens, order: OrderSpec, strategy: str = "fifo") -> GroebnerBasis:
    """Reduced basis of the binomial ideal generated by ``gens``.

    Inputs and S-pairs take one insert path: both sides are rewritten by
    the current basis, a binomial whose sides meet is dropped, and the
    larger side becomes the new lead.  Every lead is thus irreducible when
    it enters, and an element whose lead a newer lead divides is retired
    from reductions and new pairs (Gebauer & Moeller, JSC 6, 1988), so the
    leads stay an antichain and the last step only rewrites the trails.

    The loop holds ``leads`` (every lead ever added), a heap of queued
    pairs carrying their lcm and both elements, and its own reducer, the
    only store of the unretired elements, in creation order.

    ``strategy`` picks the queued S-pair: "fifo" (the default) takes
    pairs in creation order, "normal" takes the pair with the smallest
    lead-lcm (ties broken by creation order).  The reduced result is unique
    per (ideal, order), so the strategies agree; the test suite asserts
    that rather than trusting it, with "normal" as the cross-check.

    Pairs with coprime leads always reduce to zero and are never queued,
    and the chain criterion drops a pair when a third lead divides its
    lcm: among a new lead's pairs as they are queued, and at pop time
    against each lead added since, retired ones too, that splits it
    strictly.  Elimination orderings on these ideals walk long staircase
    cascades.  There the selection strategy, not this pruning, separates
    milliseconds from minutes: "normal" walks the cascades and "fifo"
    mostly does not, while the chain criterion saves a constant factor
    under "fifo".
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    normal = strategy == "normal"
    m = order.num_vars
    high = _high_mask(m)
    ones = (1 << (m * _FIELD_BITS)) - 1
    field_ones = (1 << _FIELD_BITS) - 1
    key = order.key

    leads: list[int] = []
    # (rank, h, p, lcm, a, ta, u, v): the pair of the reducer's item
    # (a, ta) at position p and the newer element (u, v), lead h
    heap: list = []
    reducer = PackedReducer(m, [])

    # fields stay below the guard bit: lcm(a, b) == a + b iff a, b are coprime
    def lcm(a: int, b: int) -> int:
        sel = ((((a | high) - b) & high) >> _GUARD) * field_ones
        return (a & sel) | (b & (ones ^ sel))

    def insert(u: int, v: int) -> None:
        u = reducer.reduce_packed(u)
        v = reducer.reduce_packed(v)
        if u == v:
            return
        if compare(order, unpack_exponent(u, m), unpack_exponent(v, m)) != GREATER:
            u, v = v, u
        # one candidate pair per distinct lcm value, coprime preferred
        # (a coprime pair shields its peers and is then dropped itself);
        # the same pass sees whether u divides some lead
        best: dict[int, tuple[bool, int]] = {}
        retire = False
        for p, (a, _, _) in enumerate(reducer.items):
            ge = ((a | high) - u) & high  # guard bits of the fields where a >= u
            sel = (ge >> _GUARD) * field_ones
            lc = (a & sel) | (u & (ones ^ sel))
            coprime = lc == a + u
            if lc not in best or (coprime and not best[lc][0]):
                best[lc] = (coprime, p)
            retire |= ge == high
        # divisibility implies numerically-smaller packed value, so one
        # ascending sweep sees every potential dominator before its prey
        kept_lcms: list[int] = []
        for lc in sorted(best):
            for q in kept_lcms:
                if ((lc | high) - q) & high == high:
                    break
            else:
                kept_lcms.append(lc)
                coprime, p = best[lc]
                if not coprime:
                    rank = key(unpack_exponent(lc, m)) if normal else ()
                    heapq.heappush(heap, (rank, len(leads), p, lc, *reducer.items[p][:2], u, v))
        # retire elements whose lead u divides; before the append, since u divides itself
        if retire:
            reducer.retire(u)
        leads.append(u)
        reducer.append(u, v)

    for b in gens:
        lead, trail = tuple(b.lead), tuple(b.trail)
        if len(lead) != m or len(trail) != m:
            raise LengthMismatchError(
                f"expected exponent vectors of length {m}, got {len(lead)} and {len(trail)}"
            )
        insert(pack_exponent(lead), pack_exponent(trail))

    while heap:
        _, h, _, lc, a, ta, u, v = heapq.heappop(heap)
        # a later lead that divides the lcm and splits it strictly from
        # both leads makes the pair redundant
        if not any(
            ((lc | high) - w) & high == high and lcm(a, w) != lc and lcm(u, w) != lc
            for w in leads[h + 1:]
        ):
            insert(lc + ta - a, lc + v - u)

    # a lead never divides its own trail (the trail sits strictly below
    # it), so the loop's reducer, which holds every unretired element, is safe
    pairs = []
    for q, t, _ in sorted(reducer.items, key=lambda item: key(unpack_exponent(item[0], m))):
        t = reducer.reduce_packed(t)
        if compare(order, unpack_exponent(q, m), unpack_exponent(t, m)) != GREATER:
            raise InternalInvariantError("reduced element lost its orientation")
        pairs.append((q, t))
    return GroebnerBasis(order=order, pairs=tuple(pairs))


# (basis, its reducer) for the basis used last; see reducer_for
_last_reducer: tuple = (None, None)


def reducer_for(basis: GroebnerBasis) -> PackedReducer:
    """The ``PackedReducer`` of ``basis``, rebuilt only when the basis changes.

    Callers read many normal forms off one basis in a row, so one entry,
    matched by identity, saves the rebuilds.  It holds a single reducer
    rather than one per basis: callers that keep many bases around would
    otherwise keep a reducer alive beside each of them.
    """
    global _last_reducer
    held, reducer = _last_reducer
    if held is not basis:
        reducer = PackedReducer.for_basis(basis)
        _last_reducer = (basis, reducer)
    return reducer


def _check_length(v: Exponent, basis: GroebnerBasis) -> None:
    if len(v) != basis.order.num_vars:
        raise ValueError(f"expected an exponent vector of length {basis.order.num_vars}")


def normal_form(v: Exponent, basis: GroebnerBasis) -> Exponent:
    """The unique irreducible exponent equivalent to v modulo the ideal."""
    _check_length(v, basis)
    return reducer_for(basis).reduce_exponent(tuple(v))


def in_staircase_complement(v: Exponent, basis: GroebnerBasis) -> bool:
    """True iff no lead divides v, i.e. monomial(v) survives reduction."""
    _check_length(v, basis)
    return not reducer_for(basis).reducible(pack_exponent(v))


def field_mask(cols) -> int:
    """Packed mask of the fields of the variables in ``cols``."""
    return sum(((1 << _FIELD_BITS) - 1) << (c * _FIELD_BITS) for c in cols)


def field_step(c: int) -> int:
    """Packed exponent of variable c alone: adding it bumps that field."""
    return 1 << (c * _FIELD_BITS)


def face_complement(basis: GroebnerBasis, free_cols, weights) -> dict[int, int]:
    """``{degree: p}`` over the staircase-complement points p of a face, packed.

    The face is where the variables outside ``free_cols`` vanish.  Its
    complement is downward closed, so a walk from the origin raising the
    free variables in column order and stopping where a corner divides
    reaches each point once.  A pure-power corner for every free variable
    certifies finiteness and is checked first; a repeated degree raises.

    ``weights[i]`` is the packed degree of a step in ``free_cols[i]`` (a
    scalar ``(a,)`` packs to ``a``): degrees are carried down the walk, and
    both degrees and points are returned packed; callers unpack at their
    own edge.  The corners are the packed leads of ``reducer_for(basis)``,
    so a read-off that goes on to reduce on the same basis builds one
    reducer.  A visited point v is uncovered, so only a corner q with
    q_i = v_i + 1 can block the step v + e_i: the corners are bucketed by
    that field.
    """
    reducer = reducer_for(basis)
    high = reducer.high
    face = field_mask(free_cols)
    steps = [field_step(c) for c in free_cols]
    fields = [field_mask((c,)) for c in free_cols]
    # a corner involving a variable that is 0 on the face divides none of it
    corners = [q for q, _, _ in reducer.items if not q & ~face]
    for c, field in zip(free_cols, fields):
        if not any(q & field == q for q in corners if q):
            raise InternalInvariantError(f"no pure-power corner bounds variable {c}")
    buckets: dict[int, list[int]] = {}  # q & field of column c -> corners q
    for q in corners:
        for field in fields:
            if q & field:
                buckets.setdefault(q & field, []).append(q)
    out = {}
    frontier = [(0, 0, 0)]
    while frontier:
        v, first, d = frontier.pop()
        if d in out:
            raise InternalInvariantError(f"degree {d} reached twice in the face")
        out[d] = v
        for i in range(first, len(steps)):
            w = v + steps[i]
            for q in buckets.get(w & fields[i], ()):
                if ((w | high) - q) & high == high:
                    break
            else:
                frontier.append((w, i, d + weights[i]))
    return out


def phi_degree(v: Exponent, weights) -> int:
    """Weighted degree v_0 + sum(v_i * a_i); invariant under normal forms."""
    return sum(map(mul, v[1:], weights), v[0])


def packed_degrees(points, weights) -> list[int]:
    """``phi_degree`` of each packed point of len(weights) + 1 fields, in order.

    With W the weights (1, a_1, .., a_k) packed in reverse field order,
    field m - 1 of v * W is v_0 + sum(v_i * a_i).  Every field of the
    product sums at most m terms v_i * w_l, so none carries while
    m * F * max(w) < 2^62, with F the largest field of the points' OR (no
    point has a larger field), and field m - 1 is then exact; past that
    bound each point is unpacked and summed instead.
    """
    points = list(points)
    m = len(weights) + 1
    top = max(unpack_exponent(reduce(or_, points, 0), m))
    if m * top * max(weights, default=1) >= _FIELD_LIMIT:
        return [phi_degree(unpack_exponent(v, m), weights) for v in points]
    w = pack_exponent((*reversed(weights), 1))
    shift = (m - 1) * _FIELD_BITS
    ones = (1 << _FIELD_BITS) - 1
    return [v * w >> shift & ones for v in points]
