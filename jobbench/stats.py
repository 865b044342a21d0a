"""Order statistics used by the benchmark reports."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def percentile(values, pct: int, min_beyond: int = MIN_BEYOND) -> float:
    """The pct-th percentile (statistics.quantiles, exclusive method).

    Refuses, with ValueError, a percentile that fewer than `min_beyond`
    samples lie strictly above: such a tail is too thin to report.
    """
    if len(values) < 2:
        raise ValueError("need at least two samples")
    value = statistics.quantiles(values, n=100)[pct - 1]
    beyond = sum(v > value for v in values)
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct} of {len(values)} samples has {beyond} beyond it; need {min_beyond}"
        )
    return value


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
