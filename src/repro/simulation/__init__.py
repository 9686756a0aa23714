"""Serving-simulation support: latency summaries, utilisation, RNG streams."""

from repro.simulation.metrics import (
    LatencySummary,
    UtilizationTimeline,
    busy_time,
    summarize,
    utilization_timeline,
)
from repro.simulation.random_streams import RandomStreams

__all__ = [
    "LatencySummary",
    "UtilizationTimeline",
    "busy_time",
    "summarize",
    "utilization_timeline",
    "RandomStreams",
]
