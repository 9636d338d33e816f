"""Summary statistics shared by the benchmark and its self-tests."""

import math
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. Failed requests enter as math.inf, so they
    count as slower than every success."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_supported(count, pct):
    """True when `count` samples leave at least MIN_BEYOND beyond pct."""
    return count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9

