"""Order statistics used by the benchmark: median, percentiles, spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks.

    Same definition as numpy's default ("linear"): rank (n - 1) * q / 100.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, p95 and the sample count they rest on."""
    return {"median": median(values), "p95": percentile(values, 95.0), "n": len(values)}


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``; a zero
    median with zero spread reads as 0.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)
