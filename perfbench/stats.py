"""Pure helpers behind the benchmark's numbers: medians, the tail
percentile, numerical headroom and span self time."""

from __future__ import annotations

import math
import statistics

# A zero deviation has no finite log; float64 carries about 16 significant
# digits, so no measured headroom can honestly exceed this.
HEADROOM_CAP = 16.0

# A tail percentile is reported only when this many samples rank above it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """The highest percentile with at least `beyond` samples ranked above it,
    as (percentile, value); None when there are too few samples for one."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, float(ordered[n - beyond - 1])


def headroom_digits(pairs) -> float | None:
    """Minimum over (deviation, tolerance) pairs of log10(tolerance /
    deviation), each capped at HEADROOM_CAP (exact zeros included); None
    when there is no pair."""
    digits = [
        HEADROOM_CAP if deviation == 0 else min(HEADROOM_CAP, math.log10(tolerance / deviation))
        for deviation, tolerance in pairs
    ]
    return min(digits) if digits else None


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    `spans` is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span, or -1 for a root.  Overlapping children (threads)
    are counted once, as the union of their intervals.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
