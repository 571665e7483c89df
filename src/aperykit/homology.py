"""Pseudo-Frobenius detection through simplicial homology.

For a in S, the complex on the generator indices whose faces F satisfy
a - sum(a_i, i in F) in S carries the syzygy information of the monoid.
The fact used here: x is pseudo-Frobenius exactly when the complex of
a = x + a_1 + ... + a_k has the reduced rational homology of a
(k-2)-sphere, i.e. rank one in degree k-2 and zero elsewhere.  That gives
a membership test for PF(S) that shares nothing with the other two
computations in this package, which is the point.

Inside, a face is a k-bit mask m and a complex is one integer whose bit m
is set iff face m is present, read in one gather from the membership
window on a - T .. a (T the generator sum) at the offsets T - (subset sum
of m), computed once per monoid.  Downward closure is one shift-and-mask
test per vertex v (the faces holding v, shifted down by 2^v, must be
present); the reduced Euler characteristic is
2 popcount(odd-size faces) - popcount(faces), and pf_via_homology ranks
only complexes where it is the sphere's (-1)^(k-2).
A complex with more than half of the 2^k faces is ranked through its
smaller Alexander dual {[k] - F : F absent}, the bit reversal of its
complement: H~_i of the complex is H~^(k-i-3) of the dual (Bjorner and
Tancer, Combinatorial Alexander duality, DCG 42, 2009).  Ranks come from
exact integer elimination that only touches rows with a nonzero in the
pivot column and divides each new row by its gcd: no floats, no modular
arithmetic, and the entries stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import itemgetter, xor

from .errors import ScanLimitError
from .semigroup import NumericalSemigroup, contains, gaps, max_scan_limit, membership_window

Face = frozenset

_BINARY = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class SimplicialComplex:
    """Bit m of ``bits`` is set iff the face {v : bit v-1 of m} is present."""

    vertex_count: int
    bits: int

    @classmethod
    def from_faces(cls, k: int, faces) -> SimplicialComplex:
        """The complex on vertices 1..k holding ``faces`` (iterables of vertices)."""
        bits = 0
        for f in map(Face, faces):
            if any(not 1 <= v <= k for v in f):
                raise ValueError(f"face {sorted(f)} has a vertex outside 1..{k}")
            bits |= 1 << sum(1 << (v - 1) for v in f)
        return cls(k, bits)

    @cached_property
    def faces(self) -> frozenset[Face]:
        return frozenset(map(_face, _masks(self.bits)))


def _check_budget(complexes: int, k: int, limit: int | None = None) -> None:
    """Raise unless complexes x 2^k faces fit ``limit`` (default APERYKIT_MAX_SCAN)."""
    if limit is None:
        limit = max_scan_limit()
    if complexes << k > limit:
        raise ScanLimitError(f"{complexes} x 2^{k} faces exceed APERYKIT_MAX_SCAN={limit}")


@lru_cache(maxsize=1)
def _face_getter(gens: tuple[int, ...]) -> itemgetter:
    """Picks byte T - sums[m], i.e. a - sums[m] in S, of a window on a - T .. a,
    for m = 2^k - 1 down to 0; sums[m] sums gens over m's bits, T = sum(gens)."""
    sums = [0] * (1 << len(gens))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + gens[low.bit_length() - 1]
    return itemgetter(*[sums[-1] - s for s in reversed(sums)])


@lru_cache(maxsize=4)
def _vertex_bits(k: int) -> tuple[int, tuple[int, ...]]:
    """Bitsets over the 2^k masks: faces of odd size, and faces holding vertex v."""
    with_v = tuple(
        int(("1" * (1 << v) + "0" * (1 << v)) * (1 << (k - v - 1)), 2) for v in range(k)
    )
    return reduce(xor, with_v, 0), with_v


def _masks(bits: int) -> list[int]:
    text = format(bits, "b")[::-1]
    return [m for m, c in enumerate(text) if c == "1"]


# Faces over at most 12 vertices stay cached; larger ones are rebuilt per use.
@lru_cache(maxsize=4096)
def _face(m: int) -> Face:
    return Face(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def build_delta(S: NumericalSemigroup, a: int, limit: int | None = None) -> SimplicialComplex:
    """Faces F of {1..k} with a - sum of the picked generators in S.

    Face {} is a in S.  Without it no face is present (a - s in S with s in
    S would put a in S); with it, all 2^k faces are read in one gather from
    the oracle's membership window on a - T .. a, T the generator sum.  The
    family is downward closed because S is closed under addition, but that
    is verified where it matters rather than assumed here.  The 2^k faces
    must fit ``limit``, read from APERYKIT_MAX_SCAN when not given.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    k = len(S.generators)
    _check_budget(1, k, limit)
    if not contains(S, a):
        return SimplicialComplex(k, 0)
    window = membership_window(S, a - sum(S.generators), a)
    present = bytes(_face_getter(S.generators)(window))
    return SimplicialComplex(k, int(present.translate(_BINARY), 2))


def _closed_bits(C: SimplicialComplex) -> int:
    """C's face bitset; ValueError unless the family is downward closed."""
    bits = C.bits
    if bits >> (1 << C.vertex_count):
        raise ValueError(f"face bitset has masks past 2^{C.vertex_count}")
    for v, holding in enumerate(_vertex_bits(C.vertex_count)[1]):
        missing = ((bits & holding) >> (1 << v)) & ~bits
        if missing:
            m = ((missing & -missing).bit_length() - 1) | 1 << v
            raise ValueError(f"face family is not downward closed at {sorted(_face(m))}")
    return bits


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank over Q by integer elimination, each new row divided by its gcd."""
    rows = [row for row in rows if any(row)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(c for c, v in enumerate(pivot) if v)
        p = pivot[col]
        rest = []
        for row in rows:
            f = row[col]
            if f:
                row = [p * v - f * w for v, w in zip(row, pivot)]
                g = reduce(gcd, row)  # gcd(*row) would fill the tuple free lists
                if not g:
                    continue
                if g != 1:
                    row = [v // g for v in row]
            rest.append(row)
        rows = rest
        rank += 1
    return rank


def _ranks(k: int, bits: int) -> list[int]:
    """reduced_homology_ranks of the downward-closed face bitset ``bits``."""
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for m in _masks(bits):
        by_size[m.bit_count()].append(m)
    # boundary[s]: rank of the map from faces of size s to faces of size s-1
    boundary = [0] * (k + 2)
    for s in range(1, k + 1):
        index = {m: i for i, m in enumerate(by_size[s - 1])}
        rows = []
        for m in by_size[s]:
            row = [0] * len(index)
            rest, sign = m, 1
            while rest:
                low = rest & -rest
                row[index[m ^ low]] = sign
                rest, sign = rest ^ low, -sign
            rows.append(row)
        boundary[s] = _rank_exact(rows)
    return [len(by_size[s]) - boundary[s] - boundary[s + 1] for s in range(k + 1)]


def reduced_homology_ranks(C: SimplicialComplex) -> tuple[int, ...]:
    """Ranks of the reduced rational homology in degrees -1 .. k-1.

    The chain complex is augmented: the empty face spans degree -1, faces
    of size i+1 span degree i.  The face family must be downward closed
    for the boundary maps to make sense; a violation raises ValueError.
    """
    k = C.vertex_count
    bits = _closed_bits(C)
    n = 1 << k
    full = (1 << n) - 1
    if not k or bits.bit_count() <= n // 2:
        return tuple(_ranks(k, bits))
    # Alexander dual (k >= 1): face m is in it iff face [k] - m, bit n-1-m, is
    # absent; H~_(j-1) of C has the rank of H~_(k-j-2) of the dual (the full
    # simplex's dual is void, and both have no homology)
    dual = _ranks(k, int(format(full ^ bits, f"0{n}b")[::-1], 2))
    return (*dual[k - 1 :: -1], 0)


def pf_via_homology(S: NumericalSemigroup) -> list[int]:
    """PF(S) found purely by the sphere-homology test over the gap list."""
    k = len(S.generators)
    if k < 2:
        raise ValueError("the homology route needs at least two generators")
    gap_list = gaps(S)
    limit = max_scan_limit()
    _check_budget(len(gap_list), k, limit)
    total = sum(S.generators)
    sphere = tuple([1 if i == k - 1 else 0 for i in range(k + 1)])
    odd = _vertex_bits(k)[0]
    out = []
    for x in gap_list:
        complex_ = build_delta(S, x + total, limit=limit)
        bits = _closed_bits(complex_)
        # reduced Euler characteristic: sum over faces of (-1)^(|F|-1)
        euler = 2 * (bits & odd).bit_count() - bits.bit_count()
        if euler == (-1) ** k and reduced_homology_ranks(complex_) == sphere:
            out.append(x)
    return out
