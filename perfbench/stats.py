"""Order statistics for latency samples (pure Python, no numpy)."""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    order statistics, the same rule as ``numpy.percentile``'s default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} outside [0, 100]")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def highest_percentile(
    values: Sequence[float], candidates: Sequence[float] = (99.9, 99.0, 90.0, 50.0), min_beyond: int = 10
) -> float | None:
    """The highest candidate percentile with at least ``min_beyond`` samples
    above it, or None when even the lowest candidate has fewer."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(values, q) >= min_beyond:
            return q
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
