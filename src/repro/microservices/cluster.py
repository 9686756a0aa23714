"""Serving-cluster simulator: nodes, network, and end-to-end request runs.

:class:`ServingCluster` binds an :class:`~repro.microservices.service_graph.Application`
to a set of :class:`NodeSpec` machines and a network model, and simulates an
open-loop request stream against it.  The two deployments the paper
evaluates are provided as factories:

* :func:`pixel_cloudlet` — ten Pixel 3A phones in Docker-Swarm mode on a
  shared local WiFi network, the workload generator running on a separate
  machine on the same WiFi;
* :func:`ec2_instance` — a single C5 instance hosting every service, with the
  workload generator co-located on the instance (the paper's methodology to
  avoid client-to-cloud network latency).

A run compiles each request type's call tree once into a flat program of
ops (hold, acquire, release, noise draw, fan-out, end) and drives every
request through one event loop.  An event due later is a plain
``(time, seq, kind, thread)`` heap tuple; an event due now (a grant, a
fan-out child, a join, a hold that adds nothing to the clock) is a
``(kind, thread)`` entry of a FIFO lane beside the heap.  Node cores,
per-service I/O pools and the shared network medium are FIFO multi-server
stations.  Event-time ties break by scheduling order, and every named
random stream is drawn in event order, so a seed reproduces a run bit for
bit.

A run produces a :class:`RunResult` with per-request-type latency summaries
(a request's end op appends its latency to its type's list, which
:func:`~repro.simulation.metrics.summarize` reads once at the end),
achieved throughput, per-node CPU-utilisation timelines (Figure 8), and the
cluster's energy consumption during the run (used by the Figure 9
carbon-per-request analysis).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.catalog import C5_9XLARGE, PIXEL_3A
from repro.devices.specs import DeviceSpec
from repro.microservices import calibration as cal
from repro.microservices.placement import (
    Placement,
    single_node_placement,
    swarm_placement,
)
from repro.microservices.service_graph import Application, CallNode
from repro.simulation.metrics import (
    LatencySummary,
    UtilizationTimeline,
    busy_time,
    summarize,
    utilization_timeline,
)
from repro.simulation.random_streams import RandomStreams

#: Pseudo-location of a workload generator that is *not* co-located with the
#: cluster (the phone-cloudlet methodology).  Transfers to and from it cross
#: the cluster's shared network.
EXTERNAL_CLIENT = "external-client"

# Event kinds.  A thread is a list ``[ops, pc, join, drawn_hold_s]``; a
# request's root thread adds ``start_s`` and its type name (None while
# warming up).  A join is ``[children_left, parent_thread]``.
_RESUME = 0  # run a thread from its pc
_JOIN = 1  # a fan-out child finished
_ARRIVE = 2  # the next request arrives
_START = 3  # the arrival process starts

# Op codes of a compiled program; an op is a tuple led by its code.
_HOLD = 0  # (HOLD, delay_s): a service hold or a latency
_ACQ = 1  # (ACQ, station): take a unit, queueing FIFO while none is free
_REL = 2  # (REL, station, n_bytes): return the unit; bytes count network traffic
_DRAW = 3  # (DRAW, next_noise, cpu_ms, speed): draw the noise; no work skips 3 ops
_HOLD_DRAWN = 4  # (HOLD_DRAWN,): hold the CPU time DRAW computed
_FORK = 5  # (FORK, child_programs): run the children in parallel, then join
_END = 6  # (END,): the program is done


#: Values a stream draws per numpy call.
_DRAW_BLOCK = 256


def _draws(sample: Callable[..., np.ndarray]) -> Callable[[], float]:
    """Scalar draws of ``sample``, taken from numpy blocks of ``_DRAW_BLOCK``.

    numpy fills a block with the routine its scalar call runs, once per
    value, so the n-th value is the stream's n-th scalar draw.
    """

    def draws() -> Iterator[float]:
        while True:
            yield from sample(size=_DRAW_BLOCK).tolist()

    return draws().__next__


def _station(capacity: int) -> list:
    """A FIFO multi-server station: ``[capacity, in_use, queue, occupancy]``.

    ``occupancy`` gains one ``(time, in_use)`` change point per grant and
    release, starting from ``(0.0, 0)``.
    """
    return [capacity, 0, deque(), [(0.0, 0)]]


@dataclass(frozen=True)
class NodeSpec:
    """One machine in a serving cluster."""

    name: str
    device: DeviceSpec
    cores: int
    core_speed: float
    io_factor: float = cal.LOCAL_FLASH_IO_FACTOR

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if not (math.isfinite(self.core_speed) and self.core_speed > 0):
            raise ValueError("core speed must be positive and finite")
        if not (math.isfinite(self.io_factor) and self.io_factor > 0):
            raise ValueError("io factor must be positive and finite")

    @property
    def capacity_ref_cores(self) -> float:
        """Total compute capacity in reference cores."""
        return self.cores * self.core_speed


@dataclass(frozen=True)
class RunResult:
    """Outcome of one serving-simulation run at a fixed offered load."""

    cluster_name: str
    application: str
    offered_qps: float
    measurement_duration_s: float
    summaries: Mapping[str, LatencySummary]
    offered_requests: Mapping[str, int]
    node_utilization: Mapping[str, UtilizationTimeline]
    mean_power_w: float
    energy_j: float
    network_bytes: float
    #: Events the serving event loop processed: the DES's unit of work.
    events: int

    @property
    def completed_requests(self) -> int:
        """Requests completed during the measurement window."""
        return sum(summary.completed for summary in self.summaries.values())

    @property
    def achieved_qps(self) -> float:
        """Completed requests per second of measurement time."""
        if self.measurement_duration_s <= 0:
            return 0.0
        return self.completed_requests / self.measurement_duration_s

    @property
    def total_offered(self) -> int:
        """Total requests offered during the measurement window."""
        return int(sum(self.offered_requests.values()))

    @property
    def completion_ratio(self) -> float:
        """Fraction of offered requests that completed within the run."""
        if self.total_offered == 0:
            return 0.0
        return self.completed_requests / self.total_offered

    def median_ms(self, request_type: Optional[str] = None) -> float:
        """Median latency of one request type (or the worst median across types).

        Returns ``inf`` when nothing completed (a fully saturated run).
        """
        if request_type is not None:
            return self.summaries[request_type].median_ms
        if not self.summaries:
            return float("inf")
        return max(summary.median_ms for summary in self.summaries.values())

    def tail_ms(self, request_type: Optional[str] = None) -> float:
        """90th-percentile latency of one type (or the worst across types).

        Returns ``inf`` when nothing completed (a fully saturated run).
        """
        if request_type is not None:
            return self.summaries[request_type].p90_ms
        if not self.summaries:
            return float("inf")
        return max(summary.p90_ms for summary in self.summaries.values())

    def mean_node_utilization(self) -> Dict[str, float]:
        """Average CPU utilisation per node over the measurement window."""
        return {name: tl.mean() for name, tl in self.node_utilization.items()}


@dataclass
class ServingCluster:
    """A set of nodes plus a network model that can serve an application."""

    name: str
    nodes: Sequence[NodeSpec]
    client_colocated: bool = False
    client_node: Optional[str] = None
    network_bandwidth_bytes_per_s: float = cal.WIFI_BANDWIDTH_BYTES_PER_S
    network_latency_s: float = cal.WIFI_LATENCY_S
    loopback_latency_s: float = cal.LOOPBACK_LATENCY_S
    service_time_sigma: float = cal.SERVICE_TIME_SIGMA

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        if not (
            math.isfinite(self.network_bandwidth_bytes_per_s)
            and self.network_bandwidth_bytes_per_s > 0
        ):
            raise ValueError("network bandwidth must be positive and finite")
        for name, value in (
            ("network latency", self.network_latency_s),
            ("loopback latency", self.loopback_latency_s),
            ("service time sigma", self.service_time_sigma),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        names = [node.name for node in self.nodes]
        if len(names) != len(set(names)):
            raise ValueError("node names must be unique")
        self._nodes_by_name: Dict[str, NodeSpec] = {
            node.name: node for node in self.nodes
        }
        if self.client_colocated:
            if self.client_node is None:
                self.client_node = names[0]
            elif self.client_node not in names:
                raise ValueError(f"client node {self.client_node!r} is not in the cluster")

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Names of all nodes, in declaration order."""
        return tuple(node.name for node in self.nodes)

    def node(self, name: str) -> NodeSpec:
        """Look up a node by name."""
        try:
            return self._nodes_by_name[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def total_capacity_ref_cores(self) -> float:
        """Aggregate compute capacity of the cluster in reference cores."""
        return sum(node.capacity_ref_cores for node in self.nodes)

    def default_placement(self, app: Application) -> Placement:
        """Swarm placement for multi-node clusters, single-node otherwise."""
        if len(self.nodes) == 1:
            return single_node_placement(app, self.nodes[0].name)
        return swarm_placement(app, self.node_names)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(
        self,
        app: Application,
        workload_mix: Mapping[str, float],
        qps: float,
        duration_s: float = cal.DEFAULT_RUN_DURATION_S,
        warmup_s: float = cal.DEFAULT_WARMUP_S,
        seed: int = 1,
        placement: Optional[Placement] = None,
        utilization_window_s: float = 1.0,
    ) -> RunResult:
        """Simulate an open-loop Poisson request stream at ``qps`` for ``duration_s``.

        ``workload_mix`` maps request-type names to mixing weights (normalised
        internally).  Latency statistics exclude the warm-up period; requests
        still in flight when the run ends count as offered but not completed,
        so the completion ratio falls below 1.0 once the cluster saturates.
        """
        for name, value in (
            ("qps", qps),
            ("duration", duration_s),
            ("utilization window", utilization_window_s),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= warmup_s < duration_s:
            raise ValueError(
                f"warm-up must be non-negative and shorter than the duration, "
                f"got {warmup_s} of {duration_s}"
            )
        mix = _normalise_mix(app, workload_mix)
        plan = placement or self.default_placement(app)
        plan.validate_against(app)

        rng = RandomStreams(seed)
        offered: Dict[str, int] = {name: 0 for name in mix}
        latencies: Dict[str, List[float]] = {name: [] for name in mix}
        cpus = {node.name: _station(node.cores) for node in self.nodes}
        programs = _Compiler(self, app, plan, cpus, rng).programs(mix)
        type_names = list(mix)
        next_gap_s = _draws(partial(rng.stream("arrivals").exponential, 1.0 / qps))
        # A mix picks its type as Generator.choice does: one uniform, placed
        # in the normalised CDF.  A one-type mix draws nothing; the
        # request-mix stream feeds nothing else, so skipping it leaves every
        # other stream alone.
        mix_cdf = np.asarray([mix[name] for name in type_names]).cumsum()
        mix_cdf /= mix_cdf[-1]
        mix_cdf = mix_cdf.tolist()
        next_mix = (
            _draws(rng.stream("request-mix").random) if len(type_names) > 1 else None
        )

        # Events due later are (time, seq, kind, thread) heap tuples; seq is
        # unique, so ties break by scheduling order and comparison never
        # reaches the kind.  Seq 1 is the arrival process's own start.
        # Events due now, including a delay that rounds to zero, are
        # (kind, thread) entries of a FIFO lane.  A heap entry due now was
        # scheduled at an earlier time, so it runs before the whole lane.
        # The heap never empties: an entry at infinity outlasts every run.
        heap: list = [(0.0, 1, _START, None), (math.inf, 0, None, None)]
        lane: deque = deque()
        due_now = lane.append
        next_due = lane.popleft
        now = 0.0
        seq = 1
        events = 0
        network_bytes = 0.0
        while True:
            if lane:
                if heap[0][0] <= now:
                    _, _, kind, thread = heappop(heap)
                else:
                    kind, thread = next_due()
            elif heap[0][0] <= duration_s:
                now, _, kind, thread = heappop(heap)
            else:
                break
            events += 1
            if kind == _JOIN:
                # A fan-out child finished; the last one resumes its parent.
                thread[0] -= 1
                if thread[0]:
                    continue
                thread = thread[1]
            elif kind != _RESUME:
                # The arrival process: an arrival before the end spawns its
                # request; the start and each such arrival draw the next gap.
                if kind == _ARRIVE:
                    if now >= duration_s:
                        continue
                    name = (
                        type_names[bisect_right(mix_cdf, next_mix())]
                        if next_mix
                        else type_names[0]
                    )
                    measured = name if now >= warmup_s else None
                    if measured is not None:
                        offered[name] += 1
                    due_now((_RESUME, [programs[name], 0, None, 0.0, now, measured]))
                at = now + next_gap_s()
                if at > now:
                    seq += 1
                    heappush(heap, (at, seq, _ARRIVE, None))
                else:
                    due_now((_ARRIVE, None))
                continue
            ops = thread[0]
            pc = thread[1]
            while True:
                op = ops[pc]
                pc += 1
                code = op[0]
                if code == _HOLD:
                    at = now + op[1]
                    if at > now:
                        seq += 1
                        heappush(heap, (at, seq, _RESUME, thread))
                    else:
                        due_now((_RESUME, thread))
                    break
                if code == _ACQ:
                    station = op[1]
                    if station[1] < station[0]:
                        station[1] += 1
                        station[3].append((now, station[1]))
                        due_now((_RESUME, thread))
                    else:
                        station[2].append(thread)
                    break
                if code == _REL:
                    station = op[1]
                    station[1] -= 1
                    station[3].append((now, station[1]))
                    if station[2]:
                        station[1] += 1
                        station[3].append((now, station[1]))
                        due_now((_RESUME, station[2].popleft()))
                    network_bytes += op[2]
                elif code == _DRAW:
                    work_ms = op[2] * op[1]()
                    if work_ms > 0:
                        thread[3] = work_ms / 1_000.0 / op[3]
                    else:
                        pc += 3
                elif code == _HOLD_DRAWN:
                    at = now + thread[3]
                    if at > now:
                        seq += 1
                        heappush(heap, (at, seq, _RESUME, thread))
                    else:
                        due_now((_RESUME, thread))
                    break
                elif code == _FORK:
                    children = op[1]
                    if children:
                        join = [len(children), thread]
                        for child in children:
                            due_now((_RESUME, [child, 0, join, 0.0]))
                    else:
                        due_now((_RESUME, thread))
                    break
                else:  # _END
                    join = thread[2]
                    if join is not None:
                        due_now((_JOIN, join))
                    elif thread[5] is not None:
                        latencies[thread[5]].append(now - thread[4])
                    break
            thread[1] = pc

        occupancy = {name: station[3] for name, station in cpus.items()}
        utilization = {
            node.name: UtilizationTimeline(
                node.name,
                *utilization_timeline(
                    occupancy[node.name], node.cores, utilization_window_s, duration_s
                ),
            )
            for node in self.nodes
        }
        mean_power, energy = self._power_and_energy(occupancy, warmup_s, duration_s)
        return RunResult(
            cluster_name=self.name,
            application=app.name,
            offered_qps=qps,
            measurement_duration_s=duration_s - warmup_s,
            summaries=summarize(latencies, offered),
            offered_requests=offered,
            node_utilization=utilization,
            mean_power_w=mean_power,
            energy_j=energy,
            network_bytes=network_bytes,
            events=events,
        )

    def _power_and_energy(
        self,
        occupancy: Mapping[str, Sequence[Tuple[float, int]]],
        start: float,
        end: float,
    ) -> Tuple[float, float]:
        """Mean cluster power and energy over ``[start, end]`` from CPU utilisation."""
        duration = end - start
        if duration <= 0:
            return 0.0, 0.0
        total_power = 0.0
        for node in self.nodes:
            utilization = busy_time(occupancy[node.name], start, end) / (
                node.cores * duration
            )
            total_power += node.device.power_model.power_at(min(1.0, utilization))
        return total_power, total_power * duration


def _normalise_mix(app: Application, workload_mix: Mapping[str, float]) -> Dict[str, float]:
    """Validate a workload mix against the app and normalise its weights."""
    if not workload_mix:
        raise ValueError("workload mix must not be empty")
    for name, weight in workload_mix.items():
        if name not in app.request_types:
            known = ", ".join(sorted(app.request_types))
            raise ValueError(f"unknown request type {name!r}; known: {known}")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(
                f"weight for {name!r} must be non-negative and finite, got {weight}"
            )
    total = sum(workload_mix.values())
    if not (math.isfinite(total) and total > 0):
        raise ValueError("workload mix weights must sum to a positive finite value")
    return {name: weight / total for name, weight in workload_mix.items()}


class _Compiler:
    """Compiles request types into flat op programs for one run.

    Each call becomes its request transfer, its CPU step (noise draw, then
    acquire, hold and release of a host core), its I/O step (acquire, hold
    and release of the service's pool on the host), its stages (a
    one-call stage inline, any other a fork) and its response transfer.  A
    transfer between two services on one node is a loopback hold; across
    nodes it holds the shared medium for its bytes, if any, then holds the
    network latency, if any.
    """

    def __init__(
        self,
        cluster: "ServingCluster",
        app: Application,
        plan: Placement,
        cpus: Mapping[str, list],
        rng: RandomStreams,
    ) -> None:
        self.cluster = cluster
        self.app = app
        self.plan = plan
        self.cpus = cpus
        self.rng = rng
        self.network = _station(1)
        self.io: Dict[Tuple[str, str], list] = {}
        self.noise: Dict[str, Callable[[], float]] = {}

    def programs(self, mix: Mapping[str, float]) -> Dict[str, tuple]:
        """One program per request type in ``mix``, led by the client's CPU step."""
        cluster = self.cluster
        client = cluster.client_node if cluster.client_colocated else EXTERNAL_CLIENT
        programs = {}
        for name in mix:
            request_type = self.app.request_type(name)
            ops: List[tuple] = []
            if cluster.client_colocated and request_type.client_cpu_ms > 0:
                client_node = cluster.node(client)
                ops += self._cpu("client", request_type.client_cpu_ms, client_node)
            ops += self._call(request_type.root, client)
            ops.append((_END,))
            programs[name] = tuple(ops)
        return programs

    def _cpu(self, stream: str, cpu_ms: float, node: NodeSpec) -> List[tuple]:
        core = self.cpus[node.name]
        if stream not in self.noise:
            sigma = self.cluster.service_time_sigma
            sample = partial(self.rng.stream(stream).lognormal, 0.0, sigma)
            self.noise[stream] = _draws(sample)
        return [
            (_DRAW, self.noise[stream], cpu_ms, node.core_speed),
            (_ACQ, core),
            (_HOLD_DRAWN,),
            (_REL, core, 0.0),
        ]

    def _transfer(self, src: str, dst: str, n_bytes: float) -> List[tuple]:
        cluster = self.cluster
        if src == dst:
            return [(_HOLD, cluster.loopback_latency_s)]
        ops: List[tuple] = []
        if n_bytes > 0:
            hold_s = n_bytes / cluster.network_bandwidth_bytes_per_s
            network = self.network
            ops += [(_ACQ, network), (_HOLD, hold_s), (_REL, network, n_bytes)]
        if cluster.network_latency_s > 0:
            ops.append((_HOLD, cluster.network_latency_s))
        return ops

    def _call(self, call: CallNode, caller: str) -> List[tuple]:
        host = self.plan.node_for(call.service)
        node = self.cluster.node(host)
        ops = self._transfer(caller, host, call.request_bytes)
        if call.cpu_ms > 0:
            ops += self._cpu(f"svc-{call.service}", call.cpu_ms, node)
        if call.io_ms > 0:
            key = (host, call.service)
            if key not in self.io:
                self.io[key] = _station(self.app.service(call.service).io_concurrency)
            pool = self.io[key]
            hold_s = call.io_ms / 1_000.0 * node.io_factor
            ops += [(_ACQ, pool), (_HOLD, hold_s), (_REL, pool, 0.0)]
        for stage in call.stages:
            if len(stage) == 1:
                ops += self._call(stage[0], host)
            else:
                children = tuple(
                    tuple(self._call(child, host)) + ((_END,),) for child in stage
                )
                ops.append((_FORK, children))
        ops += self._transfer(host, caller, call.response_bytes)
        return ops


# ---------------------------------------------------------------------------
# Cluster factories for the paper's two deployments.
# ---------------------------------------------------------------------------


def pixel_cloudlet(n_phones: int = 10, name: str = "pixel-cloudlet") -> ServingCluster:
    """The paper's testbed: ``n_phones`` Pixel 3A phones on a shared local WiFi."""
    if n_phones <= 0:
        raise ValueError("the cloudlet needs at least one phone")
    nodes = [
        NodeSpec(
            name=f"phone-{i}",
            device=PIXEL_3A,
            cores=PIXEL_3A.cores,
            core_speed=cal.PIXEL_CORE_SPEED,
            io_factor=cal.LOCAL_FLASH_IO_FACTOR,
        )
        for i in range(n_phones)
    ]
    return ServingCluster(
        name=name,
        nodes=nodes,
        client_colocated=False,
        network_bandwidth_bytes_per_s=cal.WIFI_BANDWIDTH_BYTES_PER_S,
        network_latency_s=cal.WIFI_LATENCY_S,
    )


def ec2_instance(device: DeviceSpec = C5_9XLARGE, name: Optional[str] = None) -> ServingCluster:
    """A single EC2 instance hosting every service plus the co-located client."""
    node = NodeSpec(
        name=device.name,
        device=device,
        cores=device.cores,
        core_speed=cal.C5_VCPU_SPEED,
        io_factor=cal.EBS_IO_FACTOR,
    )
    return ServingCluster(
        name=name or device.name,
        nodes=[node],
        client_colocated=True,
        client_node=device.name,
        # Calls between co-located services never cross a physical network;
        # the bandwidth here only shapes the (rare) external transfers.
        network_bandwidth_bytes_per_s=cal.WIRED_BANDWIDTH_BYTES_PER_S,
        network_latency_s=cal.WIRED_LATENCY_S,
    )
