"""Summary statistics with the sample-count rules the benchmark reports by."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is an estimate only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (the value at rank ceil(q/100*n))."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_ok(n: int, q: float) -> bool:
    """True when the ``q``-th percentile of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return beyond(n, q) >= MIN_BEYOND


def gmean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def spread(values: list[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the median,
    computed the way ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("inf"),
        "max_over_min": max(values) / min(values) if min(values) > 0 else float("inf"),
    }
