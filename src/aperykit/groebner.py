"""Buchberger's algorithm specialized to pure-difference binomial ideals.

Ideals here are generated by differences of monomials, so every object in
sight stays a pair of exponent vectors: S-polynomials of binomials are
binomials, and reducing a binomial amounts to rewriting its two monomials
independently until neither is divisible by a leading exponent.

Internally a monomial lives in a single Python integer, 64 bits per
variable, so divisibility tests and lead -> trail rewrites are two or
three big-integer operations instead of per-coordinate loops.  The top
bit of each field acts as a borrow guard: q divides v exactly when
``((v | HIGH) - q) & HIGH == HIGH``.  Exponents are asserted to be far
below the field width on entry, and rewriting never increases the
weighted degree of a monomial, so the fields cannot overflow.  The
public API speaks plain integer tuples.
Only this module knows the field layout; it also holds the one staircase
face walk (``face_complement``) and corner test (``corner_test``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InternalInvariantError
from .orders import EQUAL, GREATER, OrderSpec, compare

Exponent = tuple[int, ...]

_FIELD_BITS = 64
_FIELD_LIMIT = 1 << 62


@dataclass(frozen=True)
class Binomial:
    """monomial(lead) - monomial(trail) with lead strictly above trail."""

    lead: Exponent
    trail: Exponent


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis: elements sorted by lead, plus the staircase corners."""

    order: OrderSpec
    elements: tuple[Binomial, ...]
    corners: frozenset[Exponent]


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


def ideal_generators(S, order: OrderSpec) -> list[Binomial]:
    """Defining binomials of the kernel ideal of x^l -> (x, y_1..y_k).

    One binomial per generator relates y_i to x^{a_i}; the orientation is
    fixed by ``order`` (under any elimination ordering for x the x side
    leads).
    """
    gens = S.generators
    m = len(gens) + 1
    out = []
    for i, a in enumerate(gens, start=1):
        x_side = tuple(a if c == 0 else 0 for c in range(m))
        y_side = tuple(1 if c == i else 0 for c in range(m))
        b = oriented(x_side, y_side, order)
        if b is None:
            raise InternalInvariantError("degenerate defining binomial")
        out.append(b)
    return out


def pack_exponent(v) -> int:
    """Stack exponents into one integer, 64 bits per variable."""
    x = 0
    shift = 0
    for e in v:
        if e < 0 or e >= _FIELD_LIMIT:
            raise ValueError(f"exponent {e} out of packable range")
        x |= e << shift
        shift += _FIELD_BITS
    return x


def unpack_exponent(x: int, m: int) -> Exponent:
    mask = (1 << _FIELD_BITS) - 1
    return tuple((x >> (i * _FIELD_BITS)) & mask for i in range(m))


def _high_mask(m: int) -> int:
    return sum(1 << (i * _FIELD_BITS + _FIELD_BITS - 1) for i in range(m))


class PackedReducer:
    """Reusable rewriting engine for repeated queries against one basis.

    Holds the basis as packed (lead, trail) pairs; ``reduce_packed`` walks
    the list in a fixed order and restarts after each substitution, which
    keeps results deterministic.  Each substitution strictly lowers the
    monomial in the basis ordering, so the walk terminates.
    """

    __slots__ = ("m", "high", "items")

    def __init__(self, m: int, items):
        self.m = m
        self.high = _high_mask(m)
        self.items = list(items)

    @classmethod
    def for_basis(cls, basis: "GroebnerBasis") -> "PackedReducer":
        m = basis.order.num_vars
        return cls(
            m,
            [(pack_exponent(b.lead), pack_exponent(b.trail)) for b in basis.elements],
        )

    def reduce_packed(self, v: int) -> int:
        high = self.high
        items = self.items
        n = len(items)
        i = 0
        while i < n:
            q, t = items[i]
            if ((v | high) - q) & high == high:
                v += t - q
                i = 0
            else:
                i += 1
        return v

    def reduce_exponent(self, v: Exponent) -> Exponent:
        return unpack_exponent(self.reduce_packed(pack_exponent(v)), self.m)


def buchberger(
    gens,
    order: OrderSpec,
    strategy: str = "fifo",
    use_chain_criterion: bool = True,
) -> GroebnerBasis:
    """Reduced basis of the binomial ideal generated by ``gens``.

    ``strategy`` picks the pending S-pair: "fifo" (the default) takes
    pairs in creation order, "normal" takes the pair with the smallest
    lead-lcm (ties broken by creation index).  The reduced result is unique
    per (ideal, order), so the strategies agree; the test suite asserts
    that rather than trusting it, with "normal" as the cross-check.

    Pairs with coprime leads always reduce to zero and are never queued.
    With ``use_chain_criterion`` the queue is additionally pruned through
    the Gebauer-Moeller update: redundant pairs are dropped when a third
    lead divides their lcm, and an element whose lead becomes divisible
    by a newer lead stops participating in reductions and new pairs.
    Elimination orderings on these ideals walk long staircase cascades.
    There the selection strategy, not this pruning, separates milliseconds
    from minutes: "normal" walks the cascades and "fifo" mostly does not,
    while the chain criterion saves a constant factor under "fifo".
    Switching it off costs time, never correctness.
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    m = order.num_vars
    high = _high_mask(m)
    ones = (1 << (m * _FIELD_BITS)) - 1
    field_ones = (1 << _FIELD_BITS) - 1
    guard = _FIELD_BITS - 1
    key = order.key

    leads: list[int] = []
    trails: list[int] = []
    lead_keys: list[tuple] = []
    smasks: list[int] = []  # bit i set iff variable i occurs in the lead
    alive: list[bool] = []
    active: list[int] = []  # alive indices, ascending

    heap: list = []
    fifo: list = []
    fifo_head = 0
    pending: dict[tuple[int, int], int] = {}
    counter = 0

    def push_pair(i: int, j: int, lcm: int) -> None:
        nonlocal counter
        pending[(i, j)] = lcm
        if strategy == "normal":
            heapq.heappush(heap, (key(unpack_exponent(lcm, m)), counter, i, j))
        else:
            fifo.append((i, j))
        counter += 1

    def add_element(lead: Exponent, trail: Exponent) -> None:
        h = len(leads)
        lead_p = pack_exponent(lead)
        trail_p = pack_exponent(trail)
        smask = sum(1 << i for i, e in enumerate(lead) if e)
        new_pairs: list[tuple[int, int]] = []
        if use_chain_criterion:
            # one candidate pair per distinct lcm value, coprime preferred
            # (a coprime pair shields its peers and is then dropped itself)
            best: dict[int, tuple[bool, int]] = {}
            for g in active:
                lg = leads[g]
                ge = ((lg | high) - lead_p) & high
                sel = (ge >> guard) * field_ones
                lcm = (lg & sel) | (lead_p & (ones ^ sel))
                coprime = not (smasks[g] & smask)
                cur = best.get(lcm)
                if cur is None or (coprime and not cur[0]):
                    best[lcm] = (coprime, g)
            # divisibility implies numerically-smaller packed value, so one
            # ascending sweep sees every potential dominator before its prey
            kept_lcms: list[int] = []
            for lcm in sorted(best):
                if any(((lcm | high) - l2) & high == high for l2 in kept_lcms):
                    continue
                kept_lcms.append(lcm)
                coprime, g = best[lcm]
                if not coprime:
                    new_pairs.append((g, lcm))
            # old pairs whose lcm the new lead splits strictly are redundant
            drops = []
            for pair, lcm in pending.items():
                if ((lcm | high) - lead_p) & high != high:
                    continue
                i, j = pair
                li = leads[i]
                ge = ((li | high) - lead_p) & high
                sel = (ge >> guard) * field_ones
                if (li & sel) | (lead_p & (ones ^ sel)) == lcm:
                    continue
                lj = leads[j]
                ge = ((lj | high) - lead_p) & high
                sel = (ge >> guard) * field_ones
                if (lj & sel) | (lead_p & (ones ^ sel)) == lcm:
                    continue
                drops.append(pair)
            for pair in drops:
                del pending[pair]
            # retire elements whose lead the new one divides
            dead = [g for g in active if ((leads[g] | high) - lead_p) & high == high]
            for g in dead:
                alive[g] = False
        else:
            dead = []
            for g in active:
                if smasks[g] & smask:
                    lg = leads[g]
                    ge = ((lg | high) - lead_p) & high
                    sel = (ge >> guard) * field_ones
                    new_pairs.append((g, (lg & sel) | (lead_p & (ones ^ sel))))
        leads.append(lead_p)
        trails.append(trail_p)
        lead_keys.append(key(lead))
        smasks.append(smask)
        alive.append(True)
        if dead:
            active[:] = [g for g in active if alive[g]]
            reducer.items = [(leads[g], trails[g]) for g in active]
        active.append(h)
        reducer.items.append((lead_p, trail_p))
        new_pairs.sort()
        for g, lcm in new_pairs:
            push_pair(g, h, lcm)

    reducer = PackedReducer(m, [])
    for b in gens:
        ob = oriented(tuple(b.lead), tuple(b.trail), order)
        if ob is not None:
            add_element(ob.lead, ob.trail)

    while pending:
        if strategy == "normal":
            _, _, i, j = heapq.heappop(heap)
        else:
            i, j = fifo[fifo_head]
            fifo_head += 1
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue  # pruned after queueing
        a = reducer.reduce_packed(lcm + trails[i] - leads[i])
        b = reducer.reduce_packed(lcm + trails[j] - leads[j])
        if a == b:
            continue
        ua = unpack_exponent(a, m)
        ub = unpack_exponent(b, m)
        nb = oriented(ua, ub, order)
        add_element(nb.lead, nb.trail)

    return _interreduce(
        [leads[g] for g in active],
        [trails[g] for g in active],
        [lead_keys[g] for g in active],
        order,
    )


def _interreduce(leads, trails, lead_keys, order: OrderSpec) -> GroebnerBasis:
    """Minimalize leads, fully reduce trails, and package the result."""
    m = order.num_vars
    high = _high_mask(m)
    indexed = sorted(range(len(leads)), key=lambda i: lead_keys[i])
    kept: list[tuple[int, int]] = []
    for idx in indexed:
        lead = leads[idx]
        if any(((lead | high) - q) & high == high for q, _ in kept):
            continue
        kept.append((lead, trails[idx]))
    # a lead never divides its own trail (the trail sits strictly below
    # it), so reducing against the full kept list is safe
    reducer = PackedReducer(m, kept)
    reduced = [(lead, reducer.reduce_packed(trail)) for lead, trail in kept]
    elements = []
    for lead, trail in reduced:
        b = Binomial(unpack_exponent(lead, m), unpack_exponent(trail, m))
        if compare(order, b.lead, b.trail) != GREATER:
            raise InternalInvariantError("reduced element lost its orientation")
        elements.append(b)
    return GroebnerBasis(
        order=order,
        elements=tuple(elements),
        corners=frozenset(b.lead for b in elements),
    )


def normal_form(v: Exponent, basis: GroebnerBasis) -> Exponent:
    """The unique irreducible exponent equivalent to v modulo the ideal."""
    if len(v) != basis.order.num_vars:
        raise ValueError(
            f"expected an exponent vector of length {basis.order.num_vars}"
        )
    return PackedReducer.for_basis(basis).reduce_exponent(tuple(v))


def field_mask(cols) -> int:
    """Packed mask of the fields of the variables in ``cols``."""
    return sum(((1 << _FIELD_BITS) - 1) << (c * _FIELD_BITS) for c in cols)


def field_step(c: int) -> int:
    """Packed exponent of variable c alone: adding it bumps that field."""
    return 1 << (c * _FIELD_BITS)


def corner_test(basis: GroebnerBasis, face: int = -1):
    """Predicate on packed v: True iff a corner of ``basis`` divides v.

    Keeps the corners inside the ``face`` mask (default: all variables),
    the only ones that can divide a point of that face.
    """
    high = _high_mask(basis.order.num_vars)
    corners = [q for q in map(pack_exponent, basis.corners) if not q & ~face]

    def covered(v: int) -> bool:
        for q in corners:
            if ((v | high) - q) & high == high:
                return True
        return False

    return covered


def in_staircase_complement(v: Exponent, basis: GroebnerBasis) -> bool:
    """True iff no corner divides v, i.e. monomial(v) survives reduction."""
    return not corner_test(basis)(pack_exponent(v))


def face_complement(basis: GroebnerBasis, free_cols, degree) -> dict:
    """``{degree(p): p}`` over the staircase-complement points p of a face.

    The face is where the variables outside ``free_cols`` vanish.  Its
    complement is downward closed, so a walk from the origin raising the
    free variables in column order and stopping where a corner divides
    reaches each point once.  A pure-power corner for every free variable
    certifies finiteness and is checked first; a repeated degree raises.
    """
    m = basis.order.num_vars
    covered = corner_test(basis, field_mask(free_cols))
    steps = [field_step(c) for c in free_cols]
    for c, step in zip(free_cols, steps):
        # only a pure power of variable c divides its largest packable power
        if not covered((_FIELD_LIMIT - 1) * step):
            raise InternalInvariantError(f"no pure-power corner bounds variable {c}")
    out = {}
    frontier = [(0, 0)]
    while frontier:
        v, first = frontier.pop()
        point = unpack_exponent(v, m)
        d = degree(point)
        if d in out:
            raise InternalInvariantError(f"degree {d} reached twice in the face")
        out[d] = point
        for i in range(first, len(steps)):
            if not covered(v + steps[i]):
                frontier.append((v + steps[i], i))
    return out


def phi_degree(v: Exponent, weights) -> int:
    """Weighted degree v_0 + sum(v_i * a_i); invariant under normal forms."""
    total = v[0]
    for e, a in zip(v[1:], weights):
        total += e * a
    return total
