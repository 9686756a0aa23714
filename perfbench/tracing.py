"""Traced runs: span records, the benchmark's own spans, per-layer metrics.

A traced call hands one :class:`repro.telemetry.Telemetry` to the program,
which records its existing spans and counters into it.  The benchmark adds
spans of its own into the same object, around the public calls it makes or
wraps: ``call`` around the workload call, ``regional_trace`` around the
runner's trace synthesis, ``serve`` around ``ServingCluster.run`` and
``store_put``/``store_get`` around the store.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List

import repro.scenarios.runner as runner_module

#: Layer time metric -> the span path suffix whose self time it sums.
LAYER_SPANS = {
    "grid.trace_s": "regional_trace",
    "sites.build_s": "build_sites",
    "routing.allocate_s": "main_run/allocate_day",
    "churn.step_s": "main_run/step_population",
    "dispatch.replay_s": "main_run/dispatch_day",
    "hindsight.twin_s": "hindsight_twin",
    "probe.s": "latency_probe",
    "serve.s": "serve",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "grid.trace_s": "s",
    "grid.trace_samples": "count",
    "grid.samples_per_s": "1/s",
    "sites.build_s": "s",
    "sites.cohorts": "count",
    "routing.allocate_s": "s",
    "routing.segment_hours": "count",
    "churn.step_s": "s",
    "churn.cohort_days": "count",
    "churn.buckets_peak": "count",
    "dispatch.replay_s": "s",
    "dispatch.pack_hours": "count",
    "dispatch.pack_hours_per_s": "1/s",
    "dispatch.clipped_setpoints": "count",
    "dispatch.fallback_pack_days": "count",
    "hindsight.twin_s": "s",
    "probe.s": "s",
    "probe.offered": "count",
    "probe.completed": "count",
    "probe.requests_per_s": "1/s",
    "serve.s": "s",
    "serve.offered": "count",
    "serve.completed": "count",
    "serve.completion_ratio": "ratio",
    "serve.requests_per_s": "1/s",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.entry_bytes": "bytes",
    "store.put_mb_per_s": "MB/s",
    "store.get_mb_per_s": "MB/s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


def span_records(tele, workload: str, first_id: int = 0) -> List[dict]:
    """Flatten ``tele``'s spans into records with ids, parents and self times.

    Parents are found by interval containment, walking spans in start order
    with a stack; a span's self time is its duration minus the durations of
    its direct children (one thread, so children never overlap).
    """
    spans = sorted(tele.spans, key=lambda span: (span.start_s, span.depth))
    records: List[dict] = []
    stack: List[dict] = []
    for offset, span in enumerate(spans):
        while stack and (
            stack[-1]["depth"] >= span.depth or span.end_s > stack[-1]["end_s"]
        ):
            stack.pop()
        record = {
            "id": first_id + offset,
            "name": span.name,
            "path": span.path,
            "depth": span.depth,
            "parent": stack[-1]["id"] if stack else None,
            "workload": workload,
            "start_s": span.start_s,
            "end_s": span.end_s,
            "calls": span.calls,
            "self_s": span.duration_s,
        }
        if stack:
            stack[-1]["self_s"] -= span.duration_s
        stack.append(record)
        records.append(record)
    return records


def _self_time(records: List[dict], suffix: str) -> float:
    return sum(
        record["self_s"]
        for record in records
        if record["path"] == suffix or record["path"].endswith("/" + suffix)
    )


def _span_time(records: List[dict], name: str) -> float:
    return sum(
        record["end_s"] - record["start_s"]
        for record in records
        if record["name"] == name
    )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def call_seconds(records: List[dict]) -> float:
    """Wall time of the traced call.

    The conservation audit is a check the benchmark turns on, not part of
    the workload, so its time is left out.
    """
    return _span_time(records, "call") - _span_time(records, "audit")


def layer_metrics(
    records: List[dict], tele, samples: int, entry_bytes: int, result, spec
) -> Dict[str, float]:
    """Per-layer metrics of one traced call and its store round trip.

    ``records`` are the call's span records, ``tele`` its telemetry
    (counters and gauges), ``samples`` the grid samples the wrapped trace
    synthesis produced, ``entry_bytes`` the size of the store entry (0 when
    the workload does not store), ``result`` the call's return value and
    ``spec`` the scenario spec (``None`` for the serving workload).
    ``trace.overhead_s`` needs the untraced time and is left to the caller.
    """
    metrics = {name: _self_time(records, suffix) for name, suffix in LAYER_SPANS.items()}
    counters = {**tele.counters, **tele.gauges}
    metrics["unattributed_s"] = call_seconds(records) - sum(metrics.values())

    days = spec.duration_days if spec is not None else 0
    cohorts = int(counters.get("fleet.n_cohorts", 0))
    dispatched = spec is not None and spec.charging.coupling == "dispatch"
    metrics["grid.trace_samples"] = samples
    metrics["grid.samples_per_s"] = _rate(samples, metrics["grid.trace_s"])
    metrics["sites.cohorts"] = cohorts
    metrics["routing.segment_hours"] = counters.get("routing.waterfill_segments_touched", 0)
    metrics["churn.cohort_days"] = cohorts * days
    metrics["churn.buckets_peak"] = counters.get("churn.buckets_peak", 0)
    metrics["dispatch.pack_hours"] = cohorts * days * 24 if dispatched else 0
    metrics["dispatch.pack_hours_per_s"] = _rate(
        metrics["dispatch.pack_hours"], metrics["dispatch.replay_s"]
    )
    metrics["dispatch.clipped_setpoints"] = counters.get("dispatch.clipped_setpoints", 0)
    metrics["dispatch.fallback_pack_days"] = counters.get("dispatch.fallback_pack_days", 0)

    latency = getattr(result, "latency", None)
    metrics["probe.offered"] = latency.offered if latency is not None else 0
    metrics["probe.completed"] = latency.completed if latency is not None else 0
    metrics["probe.requests_per_s"] = _rate(metrics["probe.offered"], metrics["probe.s"])

    served = [run for _, run in result] if spec is None else []
    offered = sum(run.total_offered for run in served)
    completed = sum(run.completed_requests for run in served)
    metrics["serve.offered"] = offered
    metrics["serve.completed"] = completed
    metrics["serve.completion_ratio"] = _rate(completed, offered)
    metrics["serve.requests_per_s"] = _rate(offered, metrics["serve.s"])

    metrics["store.put_s"] = _span_time(records, "store_put")
    metrics["store.get_s"] = _span_time(records, "store_get")
    metrics["store.entry_bytes"] = entry_bytes
    metrics["store.put_mb_per_s"] = _rate(entry_bytes / 1e6, metrics["store.put_s"])
    metrics["store.get_mb_per_s"] = _rate(entry_bytes / 1e6, metrics["store.get_s"])
    return metrics


@contextlib.contextmanager
def traced_regional_trace(tele, samples: List[int]) -> Iterator[None]:
    """Wrap ``regional_trace`` as the runner imports it, for one traced call.

    Each call records a ``regional_trace`` span and appends the number of
    samples it synthesised to ``samples``; the original is restored on exit.
    """
    original = runner_module.regional_trace

    def wrapped(*args, **kwargs):
        with tele.span("regional_trace"):
            trace = original(*args, **kwargs)
        samples.append(len(trace.times_s))
        return trace

    runner_module.regional_trace = wrapped
    try:
        yield
    finally:
        runner_module.regional_trace = original
