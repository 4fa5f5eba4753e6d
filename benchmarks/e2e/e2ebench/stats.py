"""Summaries of timed samples: median, quartiles, supported tail."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n: int, pct: float) -> int:
    """Nearest-rank position (1-based) of the ``pct`` percentile of ``n``."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of unsorted samples."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def supported_tail_pct(n: int) -> float:
    """Highest percentile of the ladder with >= 10 of ``n`` samples beyond it.

    Falls back to the median when even p75 is unsupported (n < 40).
    """
    for pct in _TAIL_LADDER:
        if n - _rank(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def supported_tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile used, its value)`` under the ten-samples-beyond rule."""
    pct = supported_tail_pct(len(values))
    return pct, percentile(values, pct)


def summary(values: Sequence[float]) -> dict[str, float | int | list[float]]:
    """Median with quartiles, sample count and the samples themselves."""
    q1, q2, q3 = quartiles(values)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values), "samples": list(values)}
