"""Exact order statistics, the one percentile function of the benchmark.

Every percentile the benchmark reports is an order statistic of the raw
samples (nearest rank), returned with the sample count N and the
percentile actually used: when fewer than ten samples lie beyond the
requested rank, the highest percentile that has ten beyond it is used
instead, so a tail is never simply the maximum.
"""

import math

# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def order_stat(samples, pct):
    """Returns (value, percentile_used, n) for the pct-th percentile.

    Nearest rank: the k-th smallest sample with k = ceil(pct/100 * n).
    Tails (pct > 50) back off to rank n - MIN_BEYOND when fewer than
    MIN_BEYOND samples lie beyond rank k; below 2 * MIN_BEYOND + 1
    samples that leaves only the median. An empty sample gives 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, pct, 0
    k = max(1, math.ceil(pct / 100.0 * n))
    if pct > 50 and n - k < MIN_BEYOND:
        k = max(math.ceil(n / 2.0), n - MIN_BEYOND)
    return xs[k - 1], 100.0 * k / n, n


def median(samples):
    return order_stat(samples, 50)[0]
