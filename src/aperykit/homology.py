"""Pseudo-Frobenius detection through simplicial homology.

For a in S, the complex on the generator indices whose faces F satisfy
a - sum(a_i, i in F) in S carries the syzygy information of the monoid.
The fact used here: x is pseudo-Frobenius exactly when the complex of
a = x + a_1 + ... + a_k has the reduced rational homology of a
(k-2)-sphere, i.e. rank one in degree k-2 and zero elsewhere.  That gives
a membership test for PF(S) that shares nothing with the other two
computations in this package, which is the point.

Inside, a face is a k-bit mask and the 2^k subset sums are computed once
per monoid.  pf_via_homology skips the ranks of every complex whose
reduced Euler characteristic is not the sphere's (-1)^(k-2); otherwise
each boundary map is ranked once, by exact integer elimination that only
touches rows with a nonzero in the pivot column and divides each new row
by its gcd: no floats, no modular arithmetic, and the entries stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd

from .errors import ScanLimitError
from .semigroup import NumericalSemigroup, contains, gaps, max_scan_limit

Face = frozenset


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    faces: frozenset[Face]


def _check_budget(complexes: int, k: int) -> None:
    limit = max_scan_limit()
    if complexes << k > limit:
        raise ScanLimitError(f"{complexes} x 2^{k} faces exceed APERYKIT_MAX_SCAN={limit}")


@lru_cache(maxsize=1)
def _subset_sums(gens: tuple[int, ...]) -> tuple[int, ...]:
    """sums[m] = sum of gens[i] over the set bits i of m."""
    sums = [0] * (1 << len(gens))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + gens[low.bit_length() - 1]
    return tuple(sums)


# Faces over at most 12 vertices stay cached; larger ones are rebuilt per use.
@lru_cache(maxsize=4096)
def _face(m: int) -> Face:
    return Face(i + 1 for i in range(m.bit_length()) if m >> i & 1)


@lru_cache(maxsize=4096)
def _mask(f: Face) -> int:
    return sum(1 << (v - 1) for v in f)


def build_delta(S: NumericalSemigroup, a: int) -> SimplicialComplex:
    """Faces F of {1..k} with a - sum of the picked generators in S.

    All 2^k subsets are tested directly against the membership oracle; the
    family is downward closed because S is closed under addition, but that
    is verified where it matters rather than assumed here.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    k = len(S.generators)
    _check_budget(1, k)
    sums = _subset_sums(S.generators)
    faces = [_face(m) for m, s in enumerate(sums) if contains(S, a - s)]
    return SimplicialComplex(vertex_count=k, faces=frozenset(faces))


def _closed_masks(C: SimplicialComplex) -> list[int]:
    """Face masks of C (bit v-1 for vertex v); ValueError unless downward closed."""
    masks = list(map(_mask, C.faces))
    present = set(masks)
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low not in present:
                raise ValueError(f"face family is not downward closed at {sorted(_face(m))}")
            rest ^= low
    return masks


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


def reduced_homology_ranks(C: SimplicialComplex) -> tuple[int, ...]:
    """Ranks of the reduced rational homology in degrees -1 .. k-1.

    The chain complex is augmented: the empty face spans degree -1, faces
    of size i+1 span degree i.  The face family must be downward closed
    for the boundary maps to make sense; a violation raises ValueError.
    """
    k = C.vertex_count
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for m in _closed_masks(C):
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
    return tuple([len(by_size[s]) - boundary[s] - boundary[s + 1] for s in range(k + 1)])


def pf_via_homology(S: NumericalSemigroup) -> list[int]:
    """PF(S) found purely by the sphere-homology test over the gap list."""
    k = len(S.generators)
    if k < 2:
        raise ValueError("the homology route needs at least two generators")
    gap_list = gaps(S)
    _check_budget(len(gap_list), k)
    total = sum(S.generators)
    sphere = tuple([1 if i == k - 1 else 0 for i in range(k + 1)])
    out = []
    for x in gap_list:
        complex_ = build_delta(S, x + total)
        masks = _closed_masks(complex_)
        # reduced Euler characteristic: sum over faces of (-1)^(|F|-1)
        euler = sum(1 if m.bit_count() & 1 else -1 for m in masks)
        if euler == (-1) ** k and reduced_homology_ranks(complex_) == sphere:
            out.append(x)
    return out
