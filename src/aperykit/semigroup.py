"""Numerical monoids and their classical invariants, straight from definitions.

Everything in this module reads an explicit membership table: no
polynomial machinery is involved, so these routines double as the oracle
against which the staircase pipeline is validated.  The table is built as a
bitset held in one Python integer: bit 0 is set, and the set is closed
under adding each generator ``a`` by shift-ors with ``a, 2a, 4a, ...``, so
a table of ``n`` entries takes ``k log2(n / a)`` big-integer operations
instead of ``n k`` interpreted steps.  It is stored once as a 0/1
``bytearray`` that the scans below index in place.

Growth rule: a scan that runs past the table's end rebuilds it at twice
the length (at least up to the integer asked for) and searches again.  The
gap scan and the Apery scan both grow it until it holds the first run of
``a_1`` members after 0, which starts at the conductor ``f + 1``; the Apery
scan for ``s`` also needs ``s`` entries from that run's start on, which
ends the table just past ``max Ap(S, s) = f + s``.  Only then does it take
each residue class's first member, with one ``find`` per class.

A numerical monoid is the set of all nonnegative integer combinations of
generators ``a_1 < ... < a_k`` with ``gcd(a_1, ..., a_k) = 1``.  Its gap set
(nonnegative integers outside the monoid) is finite; the largest gap is the
Frobenius number ``f``, the gap count is the genus ``g``.  The Apery set
``Ap(S, s)`` collects the smallest member of each residue class mod ``s``,
equivalently ``{x in S : x - s not in S}``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import compress

from .errors import InternalInvariantError, NotAMemberError, NotMinimalError, ScanLimitError

_DEFAULT_MAX_SCAN = 10**7


def max_scan_limit() -> int:
    """Scan guard for membership tables and gap hunts (env APERYKIT_MAX_SCAN)."""
    raw = os.environ.get("APERYKIT_MAX_SCAN")
    if raw is None:
        return _DEFAULT_MAX_SCAN
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"APERYKIT_MAX_SCAN must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("APERYKIT_MAX_SCAN must be positive")
    return value


_BITS_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _membership_table(generators, size):
    """Boolean table t with t[m] = 1 iff m is a Z>=0-combination of generators."""
    mask = (1 << size) - 1
    bits = 1
    for a in generators:
        # after the shifts by a, 2a, ..., 2^i a every member plus any
        # multiple of a below 2^(i+1) a is in the set
        step = a
        while step < size:
            bits |= (bits << step) & mask
            step <<= 1
    # binary digits come most significant first: reverse in place, then map
    # the ASCII digits to 0/1 (two size-byte buffers alive at any time)
    table = bytearray(format(bits, f"0{size}b"), "ascii")
    table.reverse()
    return table.translate(_BITS_TO_BYTES)


class NumericalSemigroup:
    """A numerical monoid, held as its minimal generator list.

    Construction rejects non-monoids (gcd above 1) and, with a distinct
    error, non-minimal generator lists: a redundant generator would break
    the one-variable-per-generator convention used everywhere downstream.

    Instances are immutable except for the membership cache, which only
    ever grows and is swapped in atomically, so concurrent readers are safe.
    """

    __slots__ = ("generators", "_table")

    def __init__(self, generators):
        gens = tuple(int(a) for a in generators)
        if not gens:
            raise ValueError("at least one generator is required")
        if any(a < 1 for a in gens):
            raise ValueError(f"generators must be >= 1, got {gens}")
        if any(b <= a for a, b in zip(gens, gens[1:])):
            raise ValueError(f"generators must be strictly increasing, got {gens}")
        if math.gcd(*gens) != 1:
            raise ValueError(f"gcd of generators must be 1, got {gens}")
        for i, a in enumerate(gens):
            others = gens[:i] + gens[i + 1 :]
            if others and _membership_table(others, a + 1)[a]:
                raise NotMinimalError(
                    f"generator {a} is a combination of the others in {gens}"
                )
        self.generators = gens
        self._table = bytearray([1])

    def _members_up_to(self, n: int) -> bytearray:
        table = self._table
        if n < len(table):
            return table
        limit = max_scan_limit()
        if n >= limit:
            raise ScanLimitError(f"membership scan to {n} exceeds APERYKIT_MAX_SCAN={limit}")
        size = max(n + 1, 2 * len(table))
        new = _membership_table(self.generators, size)
        # single attribute assignment: readers see the old or the new table
        self._table = new
        return new

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"


@dataclass(frozen=True)
class InvariantReport:
    """Frobenius number, genus, gap list and the symmetry flag of a monoid."""

    frobenius: int
    genus: int
    gaps: tuple[int, ...]
    symmetric: bool


def contains(S: NumericalSemigroup, n: int) -> bool:
    """Membership test; negative integers are never members."""
    if n < 0:
        return False
    table = S._table
    if n < len(table):
        return table[n] == 1
    return S._members_up_to(n)[n] == 1


def membership_window(S: NumericalSemigroup, lo: int, hi: int) -> bytes:
    """0/1 bytes, the i-th 1 iff lo + i is in S, for lo + i from lo to hi.

    Negative integers are never members, so they read as 0 (and a window
    below 0 is all 0); the table grows as for ``contains``.
    """
    pad = min(max(-lo, 0), hi + 1 - lo)
    return bytes(pad) + S._members_up_to(hi)[lo + pad : hi + 1]


def gaps(S: NumericalSemigroup) -> list[int]:
    """All positive integers outside S, in increasing order.

    The scan stops once ``a_1`` consecutive members have been seen: from
    that point on every residue class mod ``a_1`` has a representative, so
    no further gaps exist.
    """
    a1 = S.generators[0]
    run = b"\x01" * a1
    limit = max_scan_limit()
    table = S._table
    # the scan ends with the first run of a1 members after 0; while the
    # table holds no such run, the scan would reach the table's end
    start = table.find(run, 1)
    while start < 0:
        table = S._members_up_to(len(table))
        start = table.find(run, 1)
    if start + a1 - 1 > limit:
        raise ScanLimitError(f"gap scan exceeded APERYKIT_MAX_SCAN={limit}")
    return list(compress(range(1, start), table[1:start].translate(_COMPLEMENT)))


def apery_bruteforce(S: NumericalSemigroup, s: int) -> list[int]:
    """Ap(S, s): the smallest member of S in each residue class mod s.

    Cross-checked on the fly against the alternative characterization
    {x in S : x - s not in S}; a disagreement would be a bug, not bad input.
    """
    if s <= 0 or not contains(S, s):
        raise NotAMemberError(f"{s} is not a nonzero element of {S!r}")
    limit = max_scan_limit()
    run = b"\x01" * S.generators[0]
    table = S._table
    # the first run of a1 members after 0 starts at the conductor f + 1 (at
    # 1 when f = -1) and every integer past it is a member, so each class's
    # least member lies below start + s; for f >= 0 that is max Ap + 1, the
    # length at which a per-class scan would stop growing the table too
    start = table.find(run, 1)
    while start < 0 or len(table) < start + s:
        table = S._members_up_to(len(table))
        start = table.find(run, 1)
    end = start + s
    elements = sorted(r + s * table[r:end:s].find(1) for r in range(s))
    top = elements[-1]
    if top > limit:
        raise ScanLimitError(f"Apery scan exceeded APERYKIT_MAX_SCAN={limit}")
    # {x in S : x - s not in S}, one byte lane per integer up to top: the
    # lanes hold 0 or 1, so the and-not carries nothing between lanes
    members = int.from_bytes(table[: top + 1], "little")
    lemma = members & ~(members << (8 * s))
    lemma_set = list(compress(range(top + 1), lemma.to_bytes(top + 1, "little")))
    if lemma_set != elements:
        raise InternalInvariantError(
            f"Apery characterizations disagree for {S!r}, s={s}: {elements} vs {lemma_set}"
        )
    return elements


def selmer_invariants(S: NumericalSemigroup, s: int) -> InvariantReport:
    """Frobenius number and genus from Ap(S, s), checked against the gap scan.

    f = max Ap(S, s) - s and g = (sum of Ap(S, s)) / s - (s - 1) / 2.  Note
    the minus sign in the genus term; the formula occasionally appears in
    print with the sign flipped, which already fails on small examples.
    """
    ap = apery_bruteforce(S, s)
    frobenius = ap[-1] - s
    numerator = 2 * sum(ap) - s * (s - 1)
    if numerator % (2 * s):
        raise InternalInvariantError(f"Selmer genus is not an integer for {S!r}, s={s}")
    genus = numerator // (2 * s)
    gap_list = gaps(S)
    if genus != len(gap_list):
        raise InternalInvariantError(
            f"Selmer genus {genus} != gap count {len(gap_list)} for {S!r}"
        )
    if frobenius != (gap_list[-1] if gap_list else -1):
        raise InternalInvariantError(
            f"Selmer Frobenius {frobenius} disagrees with gap scan for {S!r}"
        )
    return InvariantReport(
        frobenius=frobenius,
        genus=genus,
        gaps=tuple(gap_list),
        symmetric=2 * genus == frobenius + 1,
    )


def pf_bruteforce(S: NumericalSemigroup) -> list[int]:
    """Pseudo-Frobenius numbers: x not in S with x + s in S for all nonzero s in S.

    It suffices to add generators.  For S = Z>=0 (no gaps) the answer is
    {-1}, matching the f = -1 convention.
    """
    gap_list = gaps(S)
    if not gap_list:
        return [-1]
    gens = S.generators
    table = S._table
    out = []
    for x in gap_list:
        for a in gens:
            if x + a >= len(table):
                table = S._members_up_to(x + a)
            if not table[x + a]:
                break
        else:
            out.append(x)
    return out


def typeset_bruteforce(S: NumericalSemigroup) -> list[int]:
    """T(S) = {m in Ap(S, a_k) : m + a_i not in Ap(S, a_k) for every i}."""
    if len(S.generators) < 2:
        raise ValueError("the type set needs at least two generators")
    ap = apery_bruteforce(S, S.generators[-1])
    # m + a in Ap exactly when m = y - a for some y in Ap
    return sorted(set(ap).difference(*[[y - a for y in ap] for a in S.generators]))


def hasse_diagram(S: NumericalSemigroup, s: int) -> list[tuple[int, int]]:
    """Covering relations of <=_S (x <=_S y iff y - x in S) on Ap(S, s), as (lower, upper) pairs.

    The covers are the pairs (x, x + a) with a a generator and x + a in
    Ap(S, s): Ap(S, s) is downward closed under <=_S, and a minimal
    generator is no sum of two nonzero members, so nothing lies strictly
    between x and x + a.  That takes |Ap| k set lookups.  The sinks of the
    resulting DAG for s = a_k are exactly the type set.
    """
    nodes = apery_bruteforce(S, s)
    ap = set(nodes)
    return [(x, x + a) for x in nodes for a in S.generators if x + a in ap]
