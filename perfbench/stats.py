"""Statistics of the benchmark runner (run.py): percentiles, quartiles and span
self time. Pure functions, unit-tested in test_stats.py."""

import math
import statistics


def percentile(values, p):
    """The p-th percentile (0 <= p <= 100) by linear interpolation
    between order statistics (rank p/100 * (n - 1), 0-based)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = p / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of n samples lie strictly above the rank of the p-th
    percentile."""
    return (n - 1) - math.floor(p / 100 * (n - 1))


def tail_percentile(n, p=75, min_beyond=10):
    """The percentile to report as a tail over n samples: p when at
    least `min_beyond` samples lie beyond it, otherwise the median."""
    return p if samples_beyond(n, p) >= min_beyond else 50


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def union_length(intervals):
    """Total length covered by a set of (start, stop) intervals."""
    total, reach = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= reach:
            continue
        total += stop - max(start, reach)
        reach = stop
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    `spans` is a list of (name, start, stop, parent) with `parent` the
    index of the parent span in the same list, or -1 for a root."""
    children = [[] for _ in spans]
    for _, start, stop, parent in spans:
        if parent >= 0:
            children[parent].append((start, stop))
    out = []
    for (_, start, stop, _), kids in zip(spans, children):
        clipped = [(max(a, start), min(b, stop)) for a, b in kids if b > start and a < stop]
        out.append((stop - start) - union_length(clipped))
    return out


def coverage(spans, wall):
    """Share of `wall` seconds covered by the root spans."""
    roots = [(start, stop) for _, start, stop, parent in spans if parent < 0]
    return union_length(roots) / wall
