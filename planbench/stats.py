"""Small statistics helpers shared by the benchmark's modules."""

from __future__ import annotations

import math


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``q`` in (0, 100]).

    Raises:
        ValueError: for an empty sample list or ``q`` outside (0, 100].
    """
    if not samples:
        raise ValueError("percentile of an empty sample list")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(1, rank) - 1]


def median(samples: list[float]) -> float:
    """The nearest-rank 50th percentile (always an observed sample)."""
    return percentile(samples, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
