"""Order statistics shared by the runner and ``compare.py``.

Percentiles use the nearest-rank rule, so every reported percentile is a
sample that was actually measured.  A tail percentile is only trustworthy
when enough samples lie beyond it; :func:`beyond` gives that count and
:data:`MIN_BEYOND` is the floor the runner flags.
"""

from __future__ import annotations

import math
import statistics

# a tail percentile needs at least this many samples beyond it before the
# runner reports it without a warning
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, ``0 < p <= 1``: the smallest sample with
    at least ``p`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile rank {p} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p`` percentile."""
    return n - max(1, math.ceil(p * n)) if n else 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float]) -> dict[str, float]:
    """Sample count, median, IQR and min of one metric's samples."""
    q1, _, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "min": min(values),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf
