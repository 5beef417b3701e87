"""Quantiles and the tail-latency rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Tail percentiles tried from the highest down.
TAIL_LADDER = (99, 90, 75)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def ladder_pct(count: int) -> int:
    """The tail percentile for ``count`` samples: the highest of
    :data:`TAIL_LADDER` with at least :data:`MIN_BEYOND` samples beyond
    it, else 100 (the maximum)."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return 100


def tail(samples: Sequence[float], pct: int) -> Tuple[float, int]:
    """``(value, samples beyond it)`` of the ``pct`` percentile."""
    return percentile(samples, pct), beyond(len(samples), pct)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
