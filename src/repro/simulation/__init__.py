"""Discrete-event simulation engine: processes, resources, metrics, RNG streams."""

from repro.simulation.engine import AllOf, Process, Simulator, Timeout, Waitable
from repro.simulation.metrics import (
    LatencyRecorder,
    LatencySummary,
    UtilizationTimeline,
    summarize,
)
from repro.simulation.random_streams import RandomStreams
from repro.simulation.resources import (
    CpuResource,
    NetworkMedium,
    Resource,
)

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "AllOf",
    "Waitable",
    "Resource",
    "CpuResource",
    "NetworkMedium",
    "LatencyRecorder",
    "LatencySummary",
    "UtilizationTimeline",
    "summarize",
    "RandomStreams",
]
