"""A fixed pure-Python loop that measures how fast the host runs right now.

Other tenants of a shared host slow it down by up to 2x, in stretches that
change within a second and last up to minutes.  ``run.py`` times this loop
right before and right after every workload call, so each call's time can
be divided by the host speed of the moment it ran in.

The loop is shaped like the discrete-event simulations the workloads spend
most of their time in: a heap of timestamped jobs, generator "servers" that
are resumed with ``send``, small slotted objects and a dict of counters.
It is part of the benchmark, not of the program, so a change to ``src/``
never changes it.
"""

from __future__ import annotations

import heapq
import random
import time

#: Jobs one calibration pass pushes through.
CALIBRATION_JOBS = 15_000
#: The fastest pass seen on the reference host, a shared 2-core Intel Xeon
#: KVM guest with Python 3.11; ``run_ref_s`` is in these seconds.
REFERENCE_SECONDS = 0.0225
#: Servers the jobs are dealt to.
SERVERS = 8
#: Jobs held in the heap before the earliest is served.
BACKLOG = 64


class _Job:
    __slots__ = ("arrival", "size", "done")

    def __init__(self, arrival: float, size: float) -> None:
        self.arrival = arrival
        self.size = size
        self.done = 0.0


def _server(name: str, served: dict):
    busy = 0.0
    while True:
        job = yield
        busy += job.size
        served[name] = served.get(name, 0) + 1
        job.done = busy


def calibration_pass() -> int:
    """Run the loop once; returns the jobs served plus those left queued."""
    rng = random.Random(1)
    served: dict = {}
    servers = [_server(f"s{index}", served) for index in range(SERVERS)]
    for server in servers:
        next(server)
    heap: list = []
    now = 0.0
    for sequence in range(CALIBRATION_JOBS):
        now += rng.expovariate(1.0)
        heapq.heappush(heap, (now, sequence, _Job(now, rng.lognormvariate(0.0, 0.5))))
        if len(heap) > BACKLOG:
            _, _, job = heapq.heappop(heap)
            servers[sequence % SERVERS].send(job)
    return sum(served.values()) + len(heap)


def calibration_seconds() -> float:
    """Wall seconds of one calibration pass."""
    start = time.perf_counter()
    calibration_pass()
    return time.perf_counter() - start


class ReferenceClock:
    """Scales wall times to the reference host's speed.

    Construct it right before the first timed piece of work and call
    :meth:`scale` right after each one: the work's wall seconds are divided
    by the mean of the calibration passes just before and just after it,
    and multiplied by :data:`REFERENCE_SECONDS`.
    """

    def __init__(self) -> None:
        self._last = calibration_seconds()

    def scale(self, seconds: float) -> float:
        before, self._last = self._last, calibration_seconds()
        return seconds * REFERENCE_SECONDS / (0.5 * (before + self._last))
