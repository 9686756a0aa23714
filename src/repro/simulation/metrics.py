"""Metrics for serving simulations: latency summaries and utilisation."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics for one request type in one run."""

    request_type: str
    completed: int
    offered: int
    median_ms: float
    p90_ms: float
    p99_ms: float
    mean_ms: float

    @property
    def completion_ratio(self) -> float:
        """Fraction of offered requests that completed within the run."""
        if self.offered == 0:
            return 0.0
        return self.completed / self.offered


def summarize(
    samples: Mapping[str, Sequence[float]], offered: Mapping[str, int]
) -> Dict[str, LatencySummary]:
    """Summarise each request type's latencies (seconds), in sorted type order.

    A type with no samples is skipped; one with a negative latency is
    rejected.  ``offered`` defaults a type's offered count to its completed
    count.
    """
    summaries = {}
    for request_type in sorted(samples):
        values = np.asarray(samples[request_type], float)
        if values.size == 0:
            continue
        # count_nonzero, not any(): a process's first logical-or reduction
        # allocates a reduction buffer that shows up in its peak RSS.
        if np.count_nonzero(values < 0):
            raise ValueError("latency must be non-negative")
        values = values * 1_000.0
        summaries[request_type] = LatencySummary(
            request_type=request_type,
            completed=len(values),
            offered=offered.get(request_type, len(values)),
            median_ms=float(np.percentile(values, 50)),
            p90_ms=float(np.percentile(values, 90)),
            p99_ms=float(np.percentile(values, 99)),
            mean_ms=float(np.mean(values)),
        )
    return summaries


@dataclass(frozen=True)
class UtilizationTimeline:
    """Windowed CPU-utilisation series for one node."""

    node_name: str
    times_s: np.ndarray
    utilization: np.ndarray

    def mean(self) -> float:
        """Average utilisation over the timeline."""
        if len(self.utilization) == 0:
            return 0.0
        return float(np.mean(self.utilization))

    def peak(self) -> float:
        """Maximum windowed utilisation."""
        if len(self.utilization) == 0:
            return 0.0
        return float(np.max(self.utilization))


def busy_time(
    occupancy: Sequence[Tuple[float, int]], start: float, end: float
) -> float:
    """Integrated unit-seconds of occupancy over ``[start, end]``.

    ``occupancy`` is a time-ordered series of ``(time, in_use)`` change
    points; each holds its occupancy until the next one (the last until
    ``end``).  Only the change points whose interval overlaps ``[start,
    end]`` are visited, found by bisection, and their terms are summed in
    series order.
    """
    if end < start:
        raise ValueError("end must not precede start")
    # Interval i runs from occupancy[i] to occupancy[i + 1] (or to end): it
    # overlaps only if it ends after start and begins before end.
    first = max(0, bisect_right(occupancy, (start, float("inf"))) - 1)
    stop = bisect_left(occupancy, (end, -float("inf")))
    if stop <= first:
        return 0.0
    # Only the first overlapping interval can begin before start, and only
    # the last can end after end; the ones between lie inside [start, end].
    lo, in_use = occupancy[first]
    lo = max(lo, start)
    total = 0.0
    for hi, next_in_use in occupancy[first + 1 : stop]:
        if hi > lo:
            total += in_use * (hi - lo)
        lo, in_use = hi, next_in_use
    if end > lo:
        total += in_use * (end - lo)
    return total


def utilization_timeline(
    occupancy: Sequence[Tuple[float, int]],
    capacity: int,
    window_s: float,
    end: float,
    start: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed utilisation series (window centre times, utilisation fractions).

    Windows of ``window_s`` tile ``[start, end]``; the last one is clipped
    to ``end`` and divided by its true length, so no window reaches past
    the end of the run.  Grid points within a billionth of a window of
    ``end`` are rounding artefacts of the grid and do not start a window.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    edges = np.arange(start, end, window_s)
    edges = np.append(edges[edges < end - 1e-9 * window_s], end)
    if len(edges) < 2:
        return np.array([]), np.array([])
    centres = (edges[:-1] + edges[1:]) / 2.0
    values = np.array(
        [
            busy_time(occupancy, lo, hi) / (capacity * (hi - lo))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    return centres, values
