"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# percentiles a tail may be reported at, lowest first.  The workloads'
# minimum passes reach p75 at most; the higher steps keep the rule whole
# for longer input lists.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile of n samples; the
    rounding keeps 99.9% of 10000 from reading as 9990.000000000002."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """Number of the n sorted samples that lie strictly above the sample
    taken as the pct-th percentile (the nearest-rank sample)."""
    return n - _rank(n, pct)


def tail_percentile(n: int, cap: float = LADDER[-1]):
    """The highest ladder percentile, at most `cap`, that has at least ten
    samples beyond it; None when fewer than 20 samples exist."""
    best = None
    for pct in LADDER:
        if pct <= cap and samples_beyond(n, pct) >= 10:
            best = pct
    return best


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule (an observed
    sample, never an interpolation)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
