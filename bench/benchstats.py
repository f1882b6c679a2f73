"""Statistics used by the benchmark: percentiles, span self time, overhead.

Kept free of numpy so the traced CLI child can import it before the
program's own imports are timed.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, 0 < q <= 100.

    A failed case enters as +inf, so a percentile that reaches the failed
    cases reads +inf instead of a latency the failures never had.  With
    n values the p75 has n - ceil(0.75 n) samples beyond it: ten for n = 40.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may nest or overlap each other; covered time counts once.
    """
    return (end - start) - union_length(children, start, end)


def overhead_ratio(traced_walls, untraced_walls) -> float:
    """Tracing overhead: traced wall over untraced wall for the same cases."""
    untraced = sum(untraced_walls)
    if untraced <= 0.0:
        raise ValueError("untraced wall time must be positive")
    return sum(traced_walls) / untraced
