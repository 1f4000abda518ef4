"""Order statistics for latency samples.

Percentiles use the nearest-rank definition: the p-th percentile of n sorted
samples is the one at 1-based rank ceil(p * n / 100), so exactly
n - rank samples lie beyond it.  A percentile is only reported when at
least ``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10
LADDER = (50.0, 90.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    return max(1, math.ceil(p * n / 100.0))


def samples_beyond(p: float, n: int) -> int:
    return n - rank(p, n)


def highest_reportable_percentile(n: int) -> float | None:
    """The highest percentile of LADDER with at least MIN_BEYOND samples beyond it."""
    ok = [p for p in LADDER if samples_beyond(p, n) >= MIN_BEYOND]
    return ok[-1] if ok else None


def percentile(samples: Sequence[float], p: float) -> float:
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]

