"""Queueing resources: CPUs and network media.

Two resource types cover the serving experiments:

* :class:`CpuResource` — a multi-core processor with a relative speed factor.
  Work is expressed in *reference-core milliseconds*; a task occupying a core
  for ``work_ms`` reference-milliseconds holds it for ``work_ms / speed``
  wall-clock milliseconds on this CPU.  FIFO queueing across cores produces
  the latency growth near saturation that Figure 7 shows.
* :class:`NetworkMedium` — a shared transmission medium (the cloudlet's WiFi
  channel).  Transfers serialise through the medium at its bandwidth and
  then incur a propagation/stack latency that is not subject to queueing.

Both resources record their busy time as step-wise occupancy series so the
cluster runner can report per-node CPU-utilisation timelines (Figure 8).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

import numpy as np

from repro.simulation.engine import Process, Simulator, Timeout, Waitable


class _AcquireRequest(Waitable):
    """Internal waitable representing one pending acquisition of a resource."""

    def __init__(self, resource: "Resource") -> None:
        self._resource = resource

    def subscribe(self, process: Process, simulator: Simulator) -> None:
        self._resource._enqueue(process)


class Resource:
    """A counting resource with FIFO admission."""

    def __init__(self, simulator: Simulator, capacity: int, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: Deque[Process] = deque()
        #: (time, in_use) change points for occupancy post-processing.
        self.occupancy_events: List[Tuple[float, int]] = [(0.0, 0)]
        self._total_acquisitions = 0

    # -- acquisition protocol ---------------------------------------------

    def acquire(self) -> _AcquireRequest:
        """Return a waitable that resumes the caller once a unit is granted."""
        return _AcquireRequest(self)

    def release(self) -> None:
        """Return one unit to the pool and admit the next waiter, if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name!r} released more than acquired")
        self.in_use -= 1
        self._record()
        if self._queue:
            self._grant(self._queue.popleft())

    def _enqueue(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self._grant(process)
        else:
            self._queue.append(process)

    def _grant(self, process: Process) -> None:
        self.in_use += 1
        self._total_acquisitions += 1
        self._record()
        self.simulator.schedule(0.0, process.resume, self)

    def _record(self) -> None:
        self.occupancy_events.append((self.simulator.now, self.in_use))

    # -- introspection ------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a unit."""
        return len(self._queue)

    @property
    def total_acquisitions(self) -> int:
        """How many acquisitions have been granted so far."""
        return self._total_acquisitions

    def busy_time(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Integrated unit-seconds of occupancy over ``[start, end]``.

        Each change point holds its occupancy until the next one (the last
        until ``end``).  Only the change points whose interval overlaps
        ``[start, end]`` are visited, found by bisection on the time-ordered
        series, and their terms are summed in series order.
        """
        end_time = self.simulator.now if end is None else end
        if end_time < start:
            raise ValueError("end must not precede start")
        events = self.occupancy_events
        last = len(events) - 1
        # Interval i runs from events[i] to events[i + 1] (or to end_time):
        # it overlaps only if it ends after start and begins before end_time.
        first = max(0, bisect_right(events, (start, float("inf"))) - 1)
        stop = bisect_left(events, (end_time, -float("inf")))
        total = 0.0
        for index in range(first, stop):
            t0, occupancy = events[index]
            t1 = events[index + 1][0] if index < last else end_time
            lo = max(t0, start)
            hi = min(t1, end_time)
            if hi > lo:
                total += occupancy * (hi - lo)
        return total

    def utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean fraction of capacity in use over ``[start, end]``."""
        end_time = self.simulator.now if end is None else end
        duration = end_time - start
        if duration <= 0:
            return 0.0
        return self.busy_time(start, end_time) / (self.capacity * duration)

    def utilization_timeline(
        self, window_s: float, end: Optional[float] = None, start: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Windowed utilisation series (window centre times, utilisation fractions).

        Windows of ``window_s`` tile ``[start, end]``; the last one is clipped
        to ``end`` and divided by its true length, so no window reaches past
        the end of the run.  Grid points within a billionth of a window of
        ``end`` are rounding artefacts of the grid and do not start a window.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        end_time = self.simulator.now if end is None else end
        edges = np.arange(start, end_time, window_s)
        edges = np.append(edges[edges < end_time - 1e-9 * window_s], end_time)
        if len(edges) < 2:
            return np.array([]), np.array([])
        centres = (edges[:-1] + edges[1:]) / 2.0
        values = np.array(
            [
                self.busy_time(lo, hi) / (self.capacity * (hi - lo))
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        return centres, values


class CpuResource(Resource):
    """A node's CPU: ``cores`` servers running at ``speed`` reference-cores each."""

    def __init__(
        self,
        simulator: Simulator,
        cores: int,
        speed: float,
        name: str = "cpu",
    ) -> None:
        super().__init__(simulator, capacity=cores, name=name)
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed

    def service_time_s(self, work_ms: float) -> float:
        """Wall-clock seconds one core needs for ``work_ms`` of reference work."""
        if work_ms < 0:
            raise ValueError("work must be non-negative")
        return work_ms / 1_000.0 / self.speed

    def execute(self, work_ms: float) -> Generator:
        """Process fragment: occupy one core for the duration of ``work_ms``."""
        if work_ms <= 0:
            return
        yield self.acquire()
        try:
            yield Timeout(self.service_time_s(work_ms))
        finally:
            self.release()


class NetworkMedium(Resource):
    """A shared transmission medium with finite bandwidth plus fixed latency."""

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_bytes_per_s: float,
        latency_s: float = 0.0,
        name: str = "network",
    ) -> None:
        super().__init__(simulator, capacity=1, name=name)
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_s = latency_s
        self.bytes_transferred = 0.0

    def transmission_time_s(self, n_bytes: float) -> float:
        """Serialisation delay for ``n_bytes`` at the medium's bandwidth."""
        if n_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return n_bytes / self.bandwidth_bytes_per_s

    def transfer(self, n_bytes: float) -> Generator:
        """Process fragment: serialise ``n_bytes`` through the medium, then wait latency."""
        if n_bytes > 0:
            yield self.acquire()
            try:
                yield Timeout(self.transmission_time_s(n_bytes))
            finally:
                self.release()
            self.bytes_transferred += n_bytes
        if self.latency_s > 0:
            yield Timeout(self.latency_s)

