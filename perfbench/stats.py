"""Summary statistics shared by every workload.

Latencies are reported as a median plus a tail percentile.  The tail is
the highest percentile that still has at least :data:`MIN_BEYOND` samples
beyond it, so a tail figure is never one or two outliers; with 1000 or
more samples that is p99, and the benchmark sizes every workload to get
there.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank_of(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples: ceil(p/100 * n).

    Exact for percentiles with one decimal; floating point would put
    p99.9 of 10000 samples at rank 9991 instead of 9990.
    """
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[min(rank_of(p, len(sorted_values)), len(sorted_values)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it.

    With ``n`` samples, nearest rank puts percentile ``p`` at rank
    ``ceil(p/100 * n)``; the samples beyond it number ``n - rank``.
    Returns None when even the median has too few samples beyond it.
    """
    for p in TAIL_CANDIDATES:
        if n - rank_of(p, n) >= MIN_BEYOND:
            return p
    return None


def latency_summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median, p99 (or the highest percentile the rule allows) and count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": math.nan, "tail_p": None, "tail": math.nan,
                "p99": math.nan}
    tail_p = tail_percentile(n)
    tail = percentile(ordered, tail_p) if tail_p is not None else math.nan
    # p99 proper when the rule reaches it; otherwise the rule's own tail.
    p99 = percentile(ordered, 99.0) if tail_p is not None and tail_p >= 99.0 else tail
    return {"n": n, "p50": percentile(ordered, 50.0), "tail_p": tail_p,
            "tail": tail, "p99": p99}


#: The noise of a shared machine only ever slows a stretch down, so the
#: fast end of the per-stretch figures is what repeats between runs: rates
#: are reported at this percentile of their stretches, latencies at the
#: mirror percentile of their stretches' medians.
FAST_STRETCH_PERCENTILE = 90.0


def fast_rate(rates: Sequence[float]) -> float:
    """The FAST_STRETCH_PERCENTILE-th percentile of per-stretch rates."""
    return percentile(sorted(rates), FAST_STRETCH_PERCENTILE)


def fast_median(samples: Sequence[float], cuts: Sequence[int]) -> Tuple[float, int]:
    """(value, stretches): the median of each stretch of ``samples`` (a
    stretch ends at each index in ``cuts``), at the (100 -
    FAST_STRETCH_PERCENTILE)-th percentile of those medians."""
    medians = []
    start = 0
    for end in list(cuts) + [len(samples)]:
        if end > start:
            medians.append(statistics.median(samples[start:end]))
        start = end
    return percentile(sorted(medians), 100.0 - FAST_STRETCH_PERCENTILE), len(medians)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median: the spread rule the benchmark is judged by."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf

