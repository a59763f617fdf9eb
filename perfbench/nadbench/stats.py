"""The tail-latency rule."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count), or None when there are too few
    samples for any percentile to qualify. Of n sorted samples, the one at
    index n − 1 − TAIL_BEYOND has exactly TAIL_BEYOND above it; its
    nearest-rank percentile is 100·(n − TAIL_BEYOND)/n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n
