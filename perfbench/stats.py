"""Arithmetic of the host-time benchmark: percentiles, the tail
percentile and span self time."""

import math

# Percentiles the tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """Number of samples strictly past the nearest-rank p-th percentile
    of n samples."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile that has at least TAIL_MIN_BEYOND of
    n samples beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0
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


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its direct children cover. spans is a list of (start, end, parent)
    with parent an index into the list or -1."""
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (start, end, _) in enumerate(spans)
    ]

