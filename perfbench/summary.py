"""Sample summaries: median, tail percentile and quartile spread."""

from __future__ import annotations

import statistics

# Percentiles offered for the tail, in per-mille so the rank arithmetic is exact.
TAIL_PERMILLE = (500, 750, 900, 950, 990, 999)


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percentile, value).

    The value is the nearest-rank percentile: the k-th smallest sample with
    k = ceil(p * n), so n - k samples lie beyond it. None when fewer than 20
    samples leave no percentile with ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= 10:
            best = (permille / 10, ordered[rank - 1])
    return best


def describe(samples) -> dict:
    """Median, sample count and tail percentile of one timing's samples."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail_percentile"], out["tail_value"] = tail
    return out


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
