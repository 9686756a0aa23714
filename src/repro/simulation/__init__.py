"""Serving-simulation support: latency and utilisation metrics, RNG streams."""

from repro.simulation.metrics import (
    LatencyRecorder,
    LatencySummary,
    UtilizationTimeline,
    busy_time,
    summarize,
    utilization_timeline,
)
from repro.simulation.random_streams import RandomStreams

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "UtilizationTimeline",
    "busy_time",
    "summarize",
    "utilization_timeline",
    "RandomStreams",
]
