"""Summary statistics shared by the benchmark and the comparison command."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail_percentile(n, beyond=TAIL_BEYOND):
    """Highest whole percentile that leaves at least `beyond` of n samples
    strictly above its nearest-rank value, but never below the median.
    With 2 * beyond samples or fewer no percentile above the median leaves
    that many beyond it, and the tail is the median: the percentile then
    moves smoothly with the sample count instead of jumping to the maximum,
    which is the least steady figure of a small sample."""
    return max(50, 100 * (n - beyond) // n)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    rank = max(1, -(-p * len(xs) // 100))
    return xs[rank - 1]


def tail(values, beyond=TAIL_BEYOND):
    """(percentile, value, sample count) of the tail rule."""
    p = tail_percentile(len(values), beyond)
    return p, percentile(values, p), len(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Interquartile range over the median; infinite below two values."""
    if len(values) < 2:
        return math.inf
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
