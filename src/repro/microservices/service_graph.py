"""Service-graph data model for microservice applications.

A microservice application is described statically as:

* a set of :class:`Microservice` definitions (name, memory footprint, and an
  optional I/O bottleneck for stateful services such as databases);
* one or more :class:`RequestType` entries, each carrying an execution plan —
  a tree of :class:`CallNode` objects.  A call node names the service that
  handles the step, the CPU it consumes (in reference-core milliseconds), the
  request/response payload sizes, and its downstream calls organised into
  *stages*: calls within a stage are issued in parallel, stages run one after
  another.  This mirrors how DeathStarBench applications fan out RPCs (e.g.
  ComposePost resolves text/media/user IDs in parallel, then writes to the
  post storage and timelines in a second parallel wave).

The graphs are pure data; the serving simulator in
:mod:`repro.microservices.cluster` interprets them against a placement and a
network model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple


def _check_non_negative(owner: str, **values: float) -> None:
    """Reject a NaN, infinite or negative field, naming its owner and field.

    A plain ``value < 0`` test lets NaN through, and the serving loop would
    then read it as zero work (every ``> 0`` test is false).
    """
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"{owner}: {name} must be non-negative and finite, got {value}"
            )


@dataclass(frozen=True)
class Microservice:
    """One deployable service of an application.

    ``io_ms`` and ``io_concurrency`` describe the service's stateful
    bottleneck (e.g. a database commit path): its characteristic storage time
    and how many requests its I/O stage admits concurrently.  How much I/O a
    *specific* request actually performs at the service is set per call via
    :attr:`CallNode.io_ms` (a write commits, a cached read barely touches
    storage); the I/O duration does not scale with CPU speed, and nodes apply
    an I/O factor (network-attached storage is slower than local flash).
    """

    name: str
    memory_mb: float = 64.0
    io_ms: float = 0.0
    io_concurrency: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.memory_mb) and self.memory_mb > 0):
            raise ValueError(
                f"{self.name}: memory_mb must be positive and finite, "
                f"got {self.memory_mb}"
            )
        _check_non_negative(self.name, io_ms=self.io_ms)
        if self.io_concurrency <= 0:
            raise ValueError(f"{self.name}: io_concurrency must be positive")


@dataclass(frozen=True)
class CallNode:
    """One step of a request's execution plan.

    Parameters
    ----------
    service:
        Name of the microservice that executes this step.
    cpu_ms:
        CPU consumed at this service, in reference-core milliseconds.
    request_bytes / response_bytes:
        Payload sizes between the *caller* and this service.  They cross the
        network only when caller and callee are placed on different nodes.
    io_ms:
        Storage time spent by *this particular call* at the service (e.g. a
        document-store commit on the write path, or a brief cache lookup on
        the read path).  The call queues for the service's I/O resource
        (whose concurrency comes from the :class:`Microservice` definition)
        and the duration is scaled by the host node's I/O factor but not by
        its CPU speed.
    stages:
        Downstream calls; each stage is a tuple of :class:`CallNode` issued in
        parallel, and stages execute sequentially after this node's own CPU
        work.
    """

    service: str
    cpu_ms: float
    request_bytes: float = 256.0
    response_bytes: float = 512.0
    io_ms: float = 0.0
    stages: Tuple[Tuple["CallNode", ...], ...] = ()

    def __post_init__(self) -> None:
        _check_non_negative(
            self.service,
            cpu_ms=self.cpu_ms,
            request_bytes=self.request_bytes,
            response_bytes=self.response_bytes,
            io_ms=self.io_ms,
        )

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------

    def walk(self) -> Iterable["CallNode"]:
        """Yield this node and every descendant (pre-order)."""
        yield self
        for stage in self.stages:
            for child in stage:
                yield from child.walk()

    def services_used(self) -> Set[str]:
        """Names of every service touched by this call tree."""
        return {node.service for node in self.walk()}

    def total_cpu_ms(self) -> float:
        """Sum of CPU over the whole tree (reference-core ms per request)."""
        return sum(node.cpu_ms for node in self.walk())

    def cpu_ms_by_service(self) -> Dict[str, float]:
        """Per-service CPU cost of one request of this type."""
        totals: Dict[str, float] = {}
        for node in self.walk():
            totals[node.service] = totals.get(node.service, 0.0) + node.cpu_ms
        return totals

    def total_bytes(self) -> float:
        """Sum of all request+response payloads in the tree (upper bound on network bytes)."""
        return sum(node.request_bytes + node.response_bytes for node in self.walk())

    def rpc_count(self) -> int:
        """Number of RPC edges in the tree (every node except the root is one call)."""
        return sum(1 for _ in self.walk()) - 1


@dataclass(frozen=True)
class RequestType:
    """A client-visible request type and its execution plan.

    ``client_cpu_ms`` is the extra CPU the *workload generator / client*
    spends per request (building the payload, parsing the response,
    collecting traces).  It is charged to the node the client runs on only
    when the client is co-located with the application (the paper's EC2
    methodology); for the phone cloudlet the client machine is external and
    this cost does not land on the cluster.
    """

    name: str
    root: CallNode
    client_cpu_ms: float = 0.0
    client_request_bytes: float = 256.0
    client_response_bytes: float = 512.0

    def __post_init__(self) -> None:
        _check_non_negative(
            self.name,
            client_cpu_ms=self.client_cpu_ms,
            client_request_bytes=self.client_request_bytes,
            client_response_bytes=self.client_response_bytes,
        )

    def total_cpu_ms(self, include_client: bool = False) -> float:
        """Server-side CPU per request, optionally including the client cost."""
        total = self.root.total_cpu_ms()
        if include_client:
            total += self.client_cpu_ms
        return total

    def services_used(self) -> Set[str]:
        """Every service this request type touches."""
        return self.root.services_used()


@dataclass(frozen=True)
class Application:
    """A complete microservice application."""

    name: str
    services: Mapping[str, Microservice]
    request_types: Mapping[str, RequestType]
    #: Optional deployment hint: groups of services that should be co-located,
    #: used by the swarm placement to mirror the paper's Figure 8 groupings.
    placement_groups: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        for key, service in self.services.items():
            if key != service.name:
                raise ValueError(
                    f"service key {key!r} does not match service name {service.name!r}"
                )
        for key, request_type in self.request_types.items():
            if key != request_type.name:
                raise ValueError(
                    f"request key {key!r} does not match request name {request_type.name!r}"
                )
            missing = request_type.services_used() - set(self.services)
            if missing:
                raise ValueError(
                    f"request {key!r} references undefined services: {sorted(missing)}"
                )
        grouped = [name for group in self.placement_groups for name in group]
        unknown = set(grouped) - set(self.services)
        if unknown:
            raise ValueError(f"placement groups reference unknown services: {sorted(unknown)}")
        if len(grouped) != len(set(grouped)):
            raise ValueError("placement groups must not repeat services")

    def service(self, name: str) -> Microservice:
        """Look up a service definition by name."""
        try:
            return self.services[name]
        except KeyError:
            known = ", ".join(sorted(self.services))
            raise KeyError(f"unknown service {name!r}; known services: {known}") from None

    def request_type(self, name: str) -> RequestType:
        """Look up a request type by name."""
        try:
            return self.request_types[name]
        except KeyError:
            known = ", ".join(sorted(self.request_types))
            raise KeyError(f"unknown request type {name!r}; known: {known}") from None

    def service_names(self) -> Tuple[str, ...]:
        """All service names, sorted."""
        return tuple(sorted(self.services))

    def total_memory_mb(self) -> float:
        """Aggregate memory footprint of one replica of every service."""
        return sum(service.memory_mb for service in self.services.values())

    def ungrouped_services(self) -> Tuple[str, ...]:
        """Services not covered by any placement group, sorted."""
        grouped = {name for group in self.placement_groups for name in group}
        return tuple(sorted(set(self.services) - grouped))
