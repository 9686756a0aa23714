"""Metric collection for serving simulations: latencies and utilisation."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class LatencyRecorder:
    """Collects per-request-type end-to-end latencies."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))

    def record(self, request_type: str, latency_s: float) -> None:
        """Record a completed request's latency in seconds."""
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.samples[request_type].append(latency_s)

    def count(self, request_type: Optional[str] = None) -> int:
        """Completed request count, for one type or all types."""
        if request_type is not None:
            return len(self.samples.get(request_type, []))
        return sum(len(values) for values in self.samples.values())

    def percentile_ms(self, request_type: str, percentile: float) -> float:
        """Latency percentile in milliseconds for one request type."""
        values = self.samples.get(request_type)
        if not values:
            raise ValueError(f"no samples recorded for {request_type!r}")
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        return float(np.percentile(np.asarray(values), percentile) * 1_000.0)

    def median_ms(self, request_type: str) -> float:
        """Median latency in milliseconds."""
        return self.percentile_ms(request_type, 50.0)

    def tail_ms(self, request_type: str, percentile: float = 90.0) -> float:
        """Tail latency in milliseconds (90th percentile, matching Figure 7)."""
        return self.percentile_ms(request_type, percentile)

    def request_types(self) -> Tuple[str, ...]:
        """Request types with at least one sample."""
        return tuple(sorted(self.samples))


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
    recorder: LatencyRecorder, offered: Dict[str, int]
) -> Dict[str, LatencySummary]:
    """Build :class:`LatencySummary` objects for every recorded request type."""
    summaries = {}
    for request_type in recorder.request_types():
        values = np.asarray(recorder.samples[request_type]) * 1_000.0
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
