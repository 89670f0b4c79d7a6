"""Summary statistics used by every report of the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: percentiles a timing may report as its tail, highest last, each with
#: the share of samples beyond it in thousandths (exact in integers)
TAIL_PERCENTILES = ((50, 500), (90, 100), (99, 10), (99.9, 1))
#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values: Sequence[float]) -> Optional[dict]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, as ``{"p", "value", "n"}``; None when even the median
    lacks that many (fewer than 20 samples)."""
    n = len(values)
    best = None
    for p, beyond_per_mille in TAIL_PERCENTILES:
        if n * beyond_per_mille >= MIN_BEYOND * 1000:
            best = p
    if best is None:
        return None
    return {"p": best, "value": percentile(values, best), "n": n}


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, tail and sample count of one metric."""
    out = {"median": statistics.median(values),
           "mean": statistics.fmean(values), "n": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    out["tail"] = tail(values)
    return out


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 when the base is empty."""
    return numerator / base if base else 0.0
