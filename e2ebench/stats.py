"""Order statistics shared by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: the tail is at least this many of the slowest samples
TAIL_LEAST = 10
#: ...and at least this share of them, in percent
TAIL_SHARE = 5.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """``(value, slowest, samples)`` of the tail latency.

    The tail is the mean of the slowest :data:`TAIL_SHARE` percent of the
    samples, and of at least :data:`TAIL_LEAST` of them (all of them when
    there are fewer).  A mean over the tail, not one order statistic in
    it: the job times of paper-campaign fall into clusters, and its p99
    sat on the step between two of them, so it jumped between ~35 and
    ~46 ms with the seed's job mix (interquartile spread 0.25 of the
    median over ten seeds, against 0.04 for this mean).
    """
    ordered = sorted(values)
    count = len(ordered)
    slowest = min(count, max(TAIL_LEAST,
                             math.ceil(count * TAIL_SHARE / 100.0)))
    return float(statistics.fmean(ordered[-slowest:])), slowest, count
