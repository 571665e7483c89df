"""Seeded random monoids for cross-validation runs."""

from __future__ import annotations

import random

from .semigroup import NumericalSemigroup


def random_semigroup(
    rng: random.Random, kmin: int = 3, kmax: int = 5, max_gen: int = 60
) -> NumericalSemigroup:
    """A random numerical monoid with a minimal generating set.

    Draws sorted distinct generators in [2, max_gen] and retries until the
    gcd-1 and minimality checks of the constructor pass, so the output
    distribution is whatever rejection sampling makes of it; fine for
    fuzzing, deterministic for a fixed rng state.
    """
    if kmin < 1 or kmax < kmin:
        raise ValueError("need 1 <= kmin <= kmax")
    if max_gen < kmax + 1:
        raise ValueError("max_gen too small for the requested k range")
    # k minimal generators need a_1 >= k, so the smallest set is k .. 2k-1;
    # a range without such a k would retry forever
    if max(kmin, 2) > min(kmax, (max_gen + 1) // 2):
        raise ValueError(
            f"no k in {kmin}..{kmax} has a minimal generating set inside [2, {max_gen}]"
        )
    while True:
        k = rng.randint(kmin, kmax)
        gens = sorted(rng.sample(range(2, max_gen + 1), k))
        try:
            return NumericalSemigroup(gens)
        except ValueError:
            continue


def random_corpus(
    seed: int, count: int, kmin: int = 3, kmax: int = 5, max_gen: int = 60
) -> list[NumericalSemigroup]:
    rng = random.Random(seed)
    return [random_semigroup(rng, kmin, kmax, max_gen) for _ in range(count)]
