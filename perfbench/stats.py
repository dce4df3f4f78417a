"""The benchmark's arithmetic: percentiles, self time, capacity search.

Everything here is pure and deterministic so ``perfbench/tests`` can
check it against synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer and the figure is one or two unlucky samples.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def upper_decile(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=10)[-1]


def tail_percentile(values: Sequence[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile up to p99 that has at least
    :data:`MIN_BEYOND` samples ranked beyond it, with its value.

    Returns ``None`` when not even the median qualifies (fewer than
    ``2 * MIN_BEYOND`` samples, give or take rounding).
    """
    count = len(values)
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1]
    return None


def interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest or overlap each other (concurrent requests under
    one parent); a child sticking out of its parent only counts for the
    part inside it.  ``parents[i]`` is the index of span ``i``'s parent,
    or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            start = max(starts[index], starts[parent])
            end = min(ends[index], ends[parent])
            if end > start:
                children.setdefault(parent, []).append((start, end))
    result = []
    for index in range(len(starts)):
        duration = ends[index] - starts[index]
        inner = children.get(index)
        result.append(duration - interval_union(inner) if inner else duration)
    return result


def rate_ladder(low: float, high: float, step: float) -> list[float]:
    """Offered rates from ``low`` to ``high``, each ``step`` times the last."""
    if not (0 < low < high) or step <= 1.0:
        raise ValueError("need 0 < low < high and step > 1")
    rates = [low]
    while rates[-1] * step < high:
        rates.append(rates[-1] * step)
    rates.append(high)
    return rates


def search_capacity(
    passes: Callable[[float], bool], ladder: Sequence[float]
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest ladder rate that ``passes``, by bisection.

    ``ladder[0]`` is taken to pass (it is the workload's nominal rate,
    checked on its own) and the verdict is assumed monotone in the rate.
    Returns the rate and every ``(rate, verdict)`` probed, in order.
    """
    best, beyond = 0, len(ladder)
    probes = []
    while beyond - best > 1:
        middle = (best + beyond) // 2
        verdict = passes(ladder[middle])
        probes.append((ladder[middle], verdict))
        if verdict:
            best = middle
        else:
            beyond = middle
    return ladder[best], probes
