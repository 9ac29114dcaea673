"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math


def percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and the samples above it.

    The count says how far the value can be trusted: a percentile with
    fewer than ten samples beyond it is set by a handful of runs.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (pos - lo) * (xs[hi] - xs[lo])
    return value, sum(1 for x in xs if x > value)


def median(values) -> float:
    return percentile(values, 50.0)[0]


def slowest_mean(values, share: float) -> tuple[float, int]:
    """Mean of the largest ``share`` of the values, and how many that is."""
    xs = sorted((float(v) for v in values), reverse=True)
    if not xs:
        raise ValueError("mean of an empty sample")
    k = max(1, math.ceil(share * len(xs)))
    return sum(xs[:k]) / k, k
