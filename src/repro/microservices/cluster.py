"""Serving-cluster simulator: nodes, network, and end-to-end request runs.

:class:`ServingCluster` binds an :class:`~repro.microservices.service_graph.Application`
to a set of :class:`NodeSpec` machines and a network model, and simulates an
open-loop request stream against it with the discrete-event engine.  The two
deployments the paper evaluates are provided as factories:

* :func:`pixel_cloudlet` — ten Pixel 3A phones in Docker-Swarm mode on a
  shared local WiFi network, the workload generator running on a separate
  machine on the same WiFi;
* :func:`ec2_instance` — a single C5 instance hosting every service, with the
  workload generator co-located on the instance (the paper's methodology to
  avoid client-to-cloud network latency).

A run produces a :class:`RunResult` with per-request-type latency summaries,
achieved throughput, per-node CPU-utilisation timelines (Figure 8), and the
cluster's energy consumption during the run (used by the Figure 9
carbon-per-request analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.catalog import C5_9XLARGE, PIXEL_3A
from repro.devices.specs import DeviceSpec
from repro.microservices import calibration as cal
from repro.microservices.placement import (
    Placement,
    single_node_placement,
    swarm_placement,
)
from repro.microservices.service_graph import Application, CallNode, RequestType
from repro.simulation.engine import AllOf, Simulator, Timeout
from repro.simulation.metrics import (
    LatencyRecorder,
    LatencySummary,
    UtilizationTimeline,
    summarize,
)
from repro.simulation.random_streams import RandomStreams
from repro.simulation.resources import CpuResource, NetworkMedium, Resource

#: Pseudo-location of a workload generator that is *not* co-located with the
#: cluster (the phone-cloudlet methodology).  Transfers to and from it cross
#: the cluster's shared network.
EXTERNAL_CLIENT = "external-client"


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
        if self.core_speed <= 0:
            raise ValueError("core speed must be positive")
        if self.io_factor <= 0:
            raise ValueError("io factor must be positive")

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
    completed_requests: int
    node_utilization: Mapping[str, UtilizationTimeline]
    mean_power_w: float
    energy_j: float
    network_bytes: float

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
        if qps <= 0:
            raise ValueError("qps must be positive")
        if duration_s <= warmup_s:
            raise ValueError("duration must exceed the warm-up period")
        mix = _normalise_mix(app, workload_mix)

        sim = Simulator()
        rng = RandomStreams(seed)
        recorder = LatencyRecorder()
        offered: Dict[str, int] = {name: 0 for name in mix}

        cpus: Dict[str, CpuResource] = {
            node.name: CpuResource(sim, cores=node.cores, speed=node.core_speed, name=node.name)
            for node in self.nodes
        }
        network = NetworkMedium(
            sim,
            bandwidth_bytes_per_s=self.network_bandwidth_bytes_per_s,
            latency_s=self.network_latency_s,
            name=f"{self.name}-network",
        )
        io_resources: Dict[Tuple[str, str], Resource] = {}

        plan = placement or self.default_placement(app)
        plan.validate_against(app)

        client_location = (
            self.client_node if self.client_colocated else EXTERNAL_CLIENT
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
                yield Timeout(self.loopback_latency_s)
            else:
                yield from network.transfer(n_bytes)

        def execute_call(call: CallNode, caller_location: str) -> Generator:
            host = plan.node_for(call.service)
            node = self.node(host)
            yield from transfer(caller_location, host, call.request_bytes)
            if call.cpu_ms > 0:
                noise = rng.lognormal_factor(f"svc-{call.service}", self.service_time_sigma)
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
            if self.client_colocated and request_type.client_cpu_ms > 0:
                noise = rng.lognormal_factor("client", self.service_time_sigma)
                yield from cpus[client_location].execute(request_type.client_cpu_ms * noise)
            yield from execute_call(request_type.root, client_location)
            if in_measurement:
                recorder.record(request_type.name, sim.now - start)

        type_names = list(mix)
        probabilities = [mix[name] for name in type_names]

        def arrivals() -> Generator:
            while sim.now < duration_s:
                gap = rng.exponential("arrivals", 1.0 / qps)
                yield Timeout(gap)
                if sim.now >= duration_s:
                    break
                # A one-type mix needs no draw; the request-mix stream feeds
                # nothing else, so skipping it leaves every other stream alone.
                chosen = (
                    type_names[0]
                    if len(type_names) == 1
                    else rng.choice("request-mix", type_names, probabilities)
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

        measurement = duration_s - warmup_s
        utilization = {
            name: UtilizationTimeline(
                name, *cpu.utilization_timeline(utilization_window_s, end=duration_s)
            )
            for name, cpu in cpus.items()
        }
        mean_power, energy = self._power_and_energy(cpus, warmup_s, duration_s)
        summaries = summarize(recorder, offered)
        return RunResult(
            cluster_name=self.name,
            application=app.name,
            offered_qps=qps,
            measurement_duration_s=measurement,
            summaries=summaries,
            offered_requests=offered,
            completed_requests=recorder.count(),
            node_utilization=utilization,
            mean_power_w=mean_power,
            energy_j=energy,
            network_bytes=network.bytes_transferred,
        )

    def _power_and_energy(
        self, cpus: Mapping[str, CpuResource], start: float, end: float
    ) -> Tuple[float, float]:
        """Mean cluster power and energy over ``[start, end]`` from CPU utilisation."""
        duration = end - start
        if duration <= 0:
            return 0.0, 0.0
        total_power = 0.0
        for node in self.nodes:
            utilization = cpus[node.name].utilization(start, end)
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
        if weight < 0:
            raise ValueError(f"negative weight for {name!r}")
    total = sum(workload_mix.values())
    if total <= 0:
        raise ValueError("workload mix weights must sum to a positive value")
    return {name: weight / total for name, weight in workload_mix.items()}


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
