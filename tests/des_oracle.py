"""The generator discrete-event engine: the serving model's test oracle.

:meth:`~repro.microservices.ServingCluster.run` compiles each request type
into a flat program and runs one tuple event loop over FIFO stations.  This
module keeps the process engine that loop replaced, so tests can hold the
loop to it bit for bit:

* :class:`Simulator`, an event heap of plain ``(time, seq, callback, arg)``
  tuples (ties by scheduling order: ``seq`` is unique, so comparison never
  reaches the callback), driving **processes**: plain Python generators
  that ``yield`` waitables (:class:`Timeout`, resource acquisitions,
  completed-process handles, and :class:`AllOf` for fan-out / fan-in);
* :class:`Resource`, a counting resource with FIFO admission that records
  its ``(time, in_use)`` change points; :class:`CpuResource`, a multi-core
  processor with a relative speed factor; and :class:`NetworkMedium`, a
  shared medium that serialises transfers at its bandwidth and then adds a
  propagation latency that is not subject to queueing;
* :func:`exponential`, :func:`choice` and :func:`lognormal_factor`, one
  scalar draw at a time from a named
  :class:`~repro.simulation.RandomStreams` stream;
* :func:`oracle_run`, the body of ``ServingCluster.run`` on this engine:
  one generator process per request and per fan-out child.

The latency probe's per-request loop (``tests/fleet/test_probe_blocks.py``)
runs on the same engine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.microservices import calibration as cal
from repro.microservices.cluster import (
    EXTERNAL_CLIENT,
    RunResult,
    ServingCluster,
    _normalise_mix,
)
from repro.microservices.placement import Placement
from repro.microservices.service_graph import Application, CallNode, RequestType
from repro.simulation.metrics import UtilizationTimeline, summarize
from repro.simulation.random_streams import RandomStreams


# ---------------------------------------------------------------------------
# The process engine.
# ---------------------------------------------------------------------------


class Waitable:
    """Base class for objects a process may ``yield`` to suspend itself."""

    __slots__ = ()

    def subscribe(self, process: "Process", simulator: "Simulator") -> None:
        """Arrange for ``process`` to be resumed when this waitable completes."""
        raise NotImplementedError


class Timeout(Waitable):
    """Suspend the yielding process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        self.delay = delay

    def subscribe(self, process: "Process", simulator: "Simulator") -> None:
        simulator.schedule(self.delay, process.resume, None)


class Process(Waitable):
    """A running generator; also waitable so other processes can join it."""

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "") -> None:
        self._simulator = simulator
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.completed = False
        self.result: Any = None
        self._waiters: List[Tuple[Process, Any]] = []

    # -- driving ---------------------------------------------------------

    def start(self) -> None:
        """Schedule the first step of this process at the current time."""
        self._simulator.schedule(0.0, self.resume, None)

    def resume(self, value: Any = None) -> None:
        """Advance the generator until it yields the next waitable or finishes."""
        if self.completed:
            return
        try:
            waitable = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if not isinstance(waitable, Waitable):
            raise TypeError(
                f"process {self.name!r} yielded {waitable!r}; processes must yield "
                "Waitable objects (Timeout, resource requests, processes, AllOf)"
            )
        waitable.subscribe(self, self._simulator)

    def _finish(self, result: Any) -> None:
        self.completed = True
        self.result = result
        for waiter, _ in self._waiters:
            self._simulator.schedule(0.0, waiter.resume, result)
        self._waiters.clear()

    # -- waitable protocol -------------------------------------------------

    def subscribe(self, process: "Process", simulator: "Simulator") -> None:
        if self.completed:
            simulator.schedule(0.0, process.resume, self.result)
        else:
            self._waiters.append((process, None))


class AllOf(Waitable):
    """Wait until every given process has completed (fan-in barrier).

    Resumes the waiting process with the list of results in the order the
    child processes were given.
    """

    def __init__(self, processes: Iterable[Process]) -> None:
        self.processes = list(processes)

    def subscribe(self, process: "Process", simulator: "Simulator") -> None:
        pending = [child for child in self.processes if not child.completed]
        if not pending:
            simulator.schedule(
                0.0, process.resume, [child.result for child in self.processes]
            )
            return
        remaining = {"count": len(pending)}

        def make_callback() -> Callable[[Any], None]:
            def on_done(_result: Any) -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    process.resume([child.result for child in self.processes])

            return on_done

        for child in pending:
            child._waiters.append((_CallbackProcess(make_callback()), None))


class _CallbackProcess:
    """Adapter letting a plain callback sit in a process's waiter list."""

    def __init__(self, callback: Callable[[Any], None]) -> None:
        self._callback = callback

    def resume(self, value: Any = None) -> None:  # pragma: no cover - trivial
        self._callback(value)


class Simulator:
    """Event loop with a virtual clock, supporting callbacks and processes."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: List[Tuple[float, int, Callable, Any]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events popped and run so far (scheduled minus still pending)."""
        return self._sequence - len(self._heap)

    def schedule(self, delay: float, callback: Callable, argument: Any = None) -> None:
        """Run ``callback(argument)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heappush(self._heap, (self._now + delay, self._sequence, callback, argument))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Create and start a process from a generator."""
        process = Process(self, generator, name=name)
        process.start()
        return process

    def run_until(self, end_time: float) -> None:
        """Process events until the clock reaches ``end_time`` (inclusive)."""
        if end_time < self._now:
            raise ValueError("end_time is in the past")
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            self._now, _, callback, argument = heappop(heap)
            callback(argument)
        self._now = end_time

    def run(self, max_events: int = 50_000_000) -> None:
        """Process events until the queue drains (bounded by ``max_events``)."""
        heap = self._heap
        processed = 0
        while heap:
            self._now, _, callback, argument = heappop(heap)
            callback(argument)
            processed += 1
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a runaway process"
                )


# ---------------------------------------------------------------------------
# Queueing resources.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Scalar draws.
# ---------------------------------------------------------------------------


def exponential(streams: RandomStreams, name: str, mean: float) -> float:
    """One exponential sample with the given mean from stream ``name``."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return float(streams.stream(name).exponential(mean))


def choice(streams: RandomStreams, name: str, options, probabilities) -> object:
    """Pick one of ``options`` with the given probabilities from stream ``name``."""
    index = streams.stream(name).choice(len(options), p=probabilities)
    return options[int(index)]


def lognormal_factor(streams: RandomStreams, name: str, sigma: float) -> float:
    """A multiplicative noise factor with median 1.0 and log-sigma ``sigma``."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return 1.0
    return float(streams.stream(name).lognormal(mean=0.0, sigma=sigma))


# ---------------------------------------------------------------------------
# The serving run on the process engine.
# ---------------------------------------------------------------------------


@dataclass
class OracleRun:
    """What :func:`oracle_run` returns: the result and the engine's state."""

    result: RunResult
    #: Each request type's latencies (seconds), in completion order.
    samples: Dict[str, List[float]]
    #: Each node's CPU ``(time, in_use)`` change points, in node order.
    occupancy: Dict[str, List[Tuple[float, int]]]


def oracle_run(
    cluster: ServingCluster,
    app: Application,
    workload_mix: Mapping[str, float],
    qps: float,
    duration_s: float = cal.DEFAULT_RUN_DURATION_S,
    warmup_s: float = cal.DEFAULT_WARMUP_S,
    seed: int = 1,
    placement: Optional[Placement] = None,
    utilization_window_s: float = 1.0,
) -> OracleRun:
    """``cluster.run`` on the process engine: one generator per request.

    The result's ``events`` is the engine's ``events_processed``.
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    if duration_s <= warmup_s:
        raise ValueError("duration must exceed the warm-up period")
    mix = _normalise_mix(app, workload_mix)

    sim = Simulator()
    rng = RandomStreams(seed)
    offered: Dict[str, int] = {name: 0 for name in mix}
    samples: Dict[str, List[float]] = {name: [] for name in mix}

    cpus: Dict[str, CpuResource] = {
        node.name: CpuResource(sim, cores=node.cores, speed=node.core_speed, name=node.name)
        for node in cluster.nodes
    }
    network = NetworkMedium(
        sim,
        bandwidth_bytes_per_s=cluster.network_bandwidth_bytes_per_s,
        latency_s=cluster.network_latency_s,
        name=f"{cluster.name}-network",
    )
    io_resources: Dict[Tuple[str, str], Resource] = {}

    plan = placement or cluster.default_placement(app)
    plan.validate_against(app)

    client_location = (
        cluster.client_node if cluster.client_colocated else EXTERNAL_CLIENT
    )

    def io_resource(node_name: str, service_name: str) -> Resource:
        key = (node_name, service_name)
        if key not in io_resources:
            concurrency = app.service(service_name).io_concurrency
            io_resources[key] = Resource(
                sim, capacity=concurrency, name=f"{service_name}@{node_name}"
            )
        return io_resources[key]

    def transfer(src: str, dst: str, n_bytes: float) -> Generator:
        if src == dst:
            yield Timeout(cluster.loopback_latency_s)
        else:
            yield from network.transfer(n_bytes)

    def execute_call(call: CallNode, caller_location: str) -> Generator:
        host = plan.node_for(call.service)
        node = cluster.node(host)
        yield from transfer(caller_location, host, call.request_bytes)
        if call.cpu_ms > 0:
            noise = lognormal_factor(
                rng, f"svc-{call.service}", cluster.service_time_sigma
            )
            yield from cpus[host].execute(call.cpu_ms * noise)
        if call.io_ms > 0:
            resource = io_resource(host, call.service)
            yield resource.acquire()
            try:
                yield Timeout(call.io_ms / 1_000.0 * node.io_factor)
            finally:
                resource.release()
        for stage in call.stages:
            if len(stage) == 1:
                yield from execute_call(stage[0], host)
            else:
                children = [
                    sim.spawn(execute_call(child, host), name=child.service)
                    for child in stage
                ]
                yield AllOf(children)
        yield from transfer(host, caller_location, call.response_bytes)

    def handle_request(request_type: RequestType, in_measurement: bool) -> Generator:
        start = sim.now
        if cluster.client_colocated and request_type.client_cpu_ms > 0:
            noise = lognormal_factor(rng, "client", cluster.service_time_sigma)
            yield from cpus[client_location].execute(request_type.client_cpu_ms * noise)
        yield from execute_call(request_type.root, client_location)
        if in_measurement:
            samples[request_type.name].append(sim.now - start)

    type_names = list(mix)
    probabilities = [mix[name] for name in type_names]

    def arrivals() -> Generator:
        while sim.now < duration_s:
            gap = exponential(rng, "arrivals", 1.0 / qps)
            yield Timeout(gap)
            if sim.now >= duration_s:
                break
            chosen = (
                type_names[0]
                if len(type_names) == 1
                else choice(rng, "request-mix", type_names, probabilities)
            )
            request_type = app.request_type(str(chosen))
            in_measurement = sim.now >= warmup_s
            if in_measurement:
                offered[request_type.name] += 1
            sim.spawn(
                handle_request(request_type, in_measurement),
                name=request_type.name,
            )

    sim.spawn(arrivals(), name="arrivals")
    sim.run_until(duration_s)

    utilization = {
        name: UtilizationTimeline(
            name, *cpu.utilization_timeline(utilization_window_s, end=duration_s)
        )
        for name, cpu in cpus.items()
    }
    total_power = 0.0
    for node in cluster.nodes:
        node_utilization = cpus[node.name].utilization(warmup_s, duration_s)
        total_power += node.device.power_model.power_at(min(1.0, node_utilization))
    result = RunResult(
        cluster_name=cluster.name,
        application=app.name,
        offered_qps=qps,
        measurement_duration_s=duration_s - warmup_s,
        summaries=summarize(samples, offered),
        offered_requests=offered,
        node_utilization=utilization,
        mean_power_w=total_power,
        energy_j=total_power * (duration_s - warmup_s),
        network_bytes=network.bytes_transferred,
        events=sim.events_processed,
    )
    occupancy = {name: cpu.occupancy_events for name, cpu in cpus.items()}
    return OracleRun(result=result, samples=samples, occupancy=occupancy)
