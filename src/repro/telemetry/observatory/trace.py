"""Chrome ``trace_event`` export for recorded telemetry runs.

``python -m repro telemetry trace run.jsonl -o trace.json`` turns a
telemetry JSONL file (manifest line + span records) into the JSON object
format consumed by Perfetto and ``chrome://tracing``: a list of ``"X"``
(complete) events with microsecond timestamps, plus ``"M"`` (metadata)
events naming the process and one thread per track.

Track layout mirrors how the run actually executed:

* the parent process's spans land on ``tid 0`` ("main") with their real
  recorded start/duration, so nesting renders as a flame graph;
* every child manifest — a sweep cell from a worker process — gets its
  own ``tid``.
  Children carry per-phase aggregates rather than raw spans (workers fold
  spans into phase rows before shipping their manifest home), so a child
  track is synthesised from its phase tree: top-level phases laid out
  sequentially from t=0, nested phases placed inside their parent's
  window.  Durations are exact; within-track start times of synthesised
  events are schematic.

The export never needs the simulation to re-run: it reads only the JSONL.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.ioutils import atomic_write_lines
from repro.telemetry.core import Span
from repro.telemetry.sink import read_jsonl

#: One second in trace_event timestamp units.
_US = 1e6


def _metadata_event(name: str, pid: int, tid: int, value: str) -> Dict[str, object]:
    return {
        "ph": "M",
        "name": name,
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def _span_events(spans: Sequence[Span], pid: int, tid: int) -> List[Dict[str, object]]:
    """Complete events for real recorded spans (exact start + duration)."""
    return [
        {
            "ph": "X",
            "cat": "phase",
            "name": span.name,
            "pid": pid,
            "tid": tid,
            "ts": span.start_s * _US,
            "dur": span.duration_s * _US,
            "args": {"path": span.path, "calls": span.calls},
        }
        for span in spans
    ]


def _phase_tree_events(
    phases: Sequence[Dict[str, object]], pid: int, tid: int
) -> List[Dict[str, object]]:
    """Synthesise a track from phase aggregate rows (child manifests).

    Rows form a path tree; siblings are laid out sequentially and children
    start at their parent's start, so total durations nest the way the
    phases actually did even though per-call timestamps are gone.
    """
    children_of: Dict[str, List[Dict[str, object]]] = {}
    for row in phases:
        parent = row["path"].rpartition("/")[0]
        children_of.setdefault(parent, []).append(row)

    events: List[Dict[str, object]] = []

    def emit(prefix: str, start_s: float) -> None:
        cursor = start_s
        for row in children_of.get(prefix, []):
            events.append(
                {
                    "ph": "X",
                    "cat": "phase",
                    "name": row["path"].rsplit("/", 1)[-1],
                    "pid": pid,
                    "tid": tid,
                    "ts": cursor * _US,
                    "dur": row["total_s"] * _US,
                    "args": {
                        "path": row["path"],
                        "calls": row["calls"],
                        "fraction": row["fraction"],
                    },
                }
            )
            emit(row["path"], cursor)
            cursor += row["total_s"]

    emit("", 0.0)
    return events


def chrome_trace(
    manifest: Dict[str, object], spans: Sequence[Span]
) -> Dict[str, object]:
    """Build the trace_event JSON object for one recorded run."""
    pid = 1
    events: List[Dict[str, object]] = [
        _metadata_event(
            "process_name", pid, 0, f"repro: {manifest.get('name', 'run')}"
        ),
        _metadata_event("thread_name", pid, 0, "main"),
    ]
    events.extend(_span_events(spans, pid, tid=0))

    next_tid = 1

    def emit_child(child: Dict[str, object]) -> None:
        nonlocal next_tid
        tid = next_tid
        next_tid += 1
        events.append(
            _metadata_event(
                "thread_name", pid, tid, str(child.get("name", f"child-{tid}"))
            )
        )
        events.extend(
            _phase_tree_events(list(child.get("phases", [])), pid, tid)
        )
        for grandchild in child.get("children", []):
            emit_child(grandchild)

    for child in manifest.get("children", []):
        emit_child(child)

    other: Dict[str, object] = {
        "name": manifest.get("name"),
        "repro_version": manifest.get("repro_version"),
        "wall_s": manifest.get("wall_s"),
    }
    if manifest.get("spec_sha256"):
        other["spec_sha256"] = manifest["spec_sha256"]
    if manifest.get("seed") is not None:
        other["seed"] = manifest["seed"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def trace_track_count(trace: Dict[str, object]) -> int:
    """Distinct (pid, tid) tracks in a built trace."""
    return len(
        {(event["pid"], event["tid"]) for event in trace["traceEvents"]}
    )


def export_chrome_trace(jsonl_path: str, out_path: str) -> Dict[str, object]:
    """Read a telemetry JSONL file, write its Chrome trace, return the trace."""
    manifest, spans = read_jsonl(jsonl_path)
    trace = chrome_trace(manifest, spans)
    atomic_write_lines(out_path, [json.dumps(trace, sort_keys=True)])
    return trace
