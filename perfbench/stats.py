"""Summary statistics for per-query wall times and run-to-run spread."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile of ``samples`` with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  By rank, the value is the eleventh
    largest sample, so exactly ten samples sit above it, and its percentile
    is ``100 * (n - 10) / n``.  The percentile moves smoothly with ``n``
    instead of jumping between fixed levels such as p90 and p99, so two runs
    of similar length report comparable tails.  With ten samples or fewer
    no percentile qualifies: the maximum is returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")
