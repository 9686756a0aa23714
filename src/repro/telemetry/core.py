"""The :class:`Telemetry` context: nested spans, counters, and gauges.

Zero-dependency instrumentation for the hot layers.  A simulation (or the
scenario runner around it) holds one :class:`Telemetry` object and brackets
its phases with ``with tele.span("dispatch_day"): ...`` — spans nest, so a
phase records under its full path: the scenario runner's fleet run puts
it at ``scenario/main_run/dispatch_day``, a bare fleet simulation at
``dispatch_day``, and the two never blur.  Counters are monotonic (``tele.count("dispatch.clipped_setpoints",
3)``); gauges are last-write-wins (``tele.gauge("fleet.n_cohorts", 4)``).

Two hard rules keep telemetry safe to thread through simulation code:

* **Never touch numeric or RNG state.**  Telemetry reads the wall clock and
  appends to Python lists/dicts; it must not draw random numbers, reorder
  floating-point reductions, or feed anything back into the simulation.  A
  telemetry-on run is bitwise-identical to a telemetry-off run (locked by
  ``tests/scenarios/test_telemetry_scenarios.py``).
* **Un-instrumented callers pay nothing.**  Every instrumented signature
  defaults to :data:`NULL_TELEMETRY`, whose ``span`` hands back one shared
  re-entrant no-op context manager and whose counters discard their
  arguments — the hot loop's cost for unused telemetry is a method call.

Costlier derived metrics (e.g. counting waterfill segments an allocation
touched) should be guarded with ``if tele.enabled:`` so the null path skips
even the computation of the value it would have discarded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One completed wall-clock span.

    ``path`` is the slash-separated nesting chain (``"scenario/main_run/
    allocate_day"``); ``index`` is the global completion order (children
    complete before their parents); ``start_s`` is relative to the owning
    :class:`Telemetry` object's creation, so spans from one run are
    mutually comparable without wall-clock epochs.  ``calls`` is the number
    of logical invocations this span stands for: a batched loop opens *one*
    span per block and scales ``calls`` by the days it covered, so per-phase
    call totals stay comparable across block sizes while span overhead is
    amortised (``calls=0`` folds pure setup time into a phase without
    inflating its call count).
    """

    path: str
    depth: int
    start_s: float
    duration_s: float
    index: int
    calls: int = 1

    @property
    def name(self) -> str:
        """The leaf name (last path component)."""
        return self.path.rsplit("/", 1)[-1]

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _SpanHandle:
    """The live context manager one ``tele.span(name)`` call hands out."""

    __slots__ = ("_telemetry", "_name", "_start", "_calls")

    def __init__(self, telemetry: "Telemetry", name: str, calls: int = 1) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0
        self._calls = calls

    def __enter__(self) -> "_SpanHandle":
        self._telemetry._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        tele = self._telemetry
        path = "/".join(tele._stack)
        depth = len(tele._stack)
        tele._stack.pop()
        tele._record(path, depth, self._start, end - self._start, self._calls)


class _NullSpan:
    """A shared, re-entrant, do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Collects spans, counters, and gauges for one run.

    One object per run (the manifest builder assumes its span clock starts
    at the run's start); nesting across subsystems is free because spans
    carry their full path.  ``children`` holds manifests merged in from
    worker processes (one per sweep cell), see :meth:`add_child`.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[str] = []
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.children: List[dict] = []
        self.events: List[dict] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, calls: int = 1) -> _SpanHandle:
        """A context manager timing one named, possibly nested, phase.

        ``calls`` is the logical invocation count the span stands for — a
        batched loop records one span per block with ``calls`` scaled by the
        days covered (``calls=0`` contributes time but no invocations).
        """
        if not name or "/" in name:
            raise ValueError(
                f"span name must be a non-empty path segment without '/', "
                f"got {name!r}"
            )
        if calls < 0:
            raise ValueError(f"span calls must be >= 0, got {calls}")
        return _SpanHandle(self, name, calls)

    def _record(
        self, path: str, depth: int, start: float, duration: float, calls: int = 1
    ) -> None:
        self.spans.append(
            Span(
                path=path,
                depth=depth,
                start_s=start - self._origin,
                duration_s=duration,
                index=len(self.spans),
                calls=calls,
            )
        )

    def wall_s(self) -> float:
        """Wall-clock seconds since this telemetry context was created."""
        return time.perf_counter() - self._origin

    def phase_totals(self) -> Dict[str, Tuple[int, float]]:
        """Aggregate spans by path: ``{path: (calls, total_s)}``.

        Paths keep nesting distinct, so a phase recorded under two parents
        shows up as two rows.
        Insertion order follows first completion of each path.
        """
        totals: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, total = totals.get(span.path, (0, 0.0))
            totals[span.path] = (calls + span.calls, total + span.duration_s)
        return totals

    # -- counters and gauges ----------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        if value < 0:
            raise ValueError(f"counter increments must be >= 0, got {value}")
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def event(self, kind: str, **data: object) -> None:
        """Append one structured event record (e.g. an audit violation).

        Events are ordered, arbitrary-payload annotations — the channel for
        rare, noteworthy occurrences that neither a counter (no payload) nor
        a span (no semantics) can carry.  They land in the manifest under
        the optional ``events`` key.
        """
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        self.events.append({"kind": kind, **data})

    # -- child manifests (process-pool reassembly) -------------------------

    def add_child(self, manifest: dict) -> None:
        """Attach a worker's manifest and fold its counters into this run.

        Counters add (they are monotonic); spans and gauges stay with the
        child — a worker's wall clock is not comparable to the parent's.
        Call in a deterministic order (grid order, not completion order) so
        the merged counter dict is identical across serial and parallel
        sweeps.
        """
        self.children.append(manifest)
        for name, value in manifest.get("counters", {}).items():
            self.count(name, value)

    def iter_spans(self) -> Iterator[Span]:
        return iter(self.spans)


class NullTelemetry:
    """The do-nothing default: same surface as :class:`Telemetry`, no cost.

    ``spans``/``counters``/``gauges``/``children`` read as empty so code may
    inspect a telemetry object without caring which kind it holds.
    """

    enabled: bool = False
    spans: Tuple[()] = ()
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    children: Tuple[()] = ()
    events: Tuple[()] = ()

    def span(self, name: str, calls: int = 1) -> _NullSpan:
        return _NULL_SPAN

    def wall_s(self) -> float:
        return 0.0

    def phase_totals(self) -> Dict[str, Tuple[int, float]]:
        return {}

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def event(self, kind: str, **data: object) -> None:
        return None

    def add_child(self, manifest: dict) -> None:
        return None

    def iter_spans(self) -> Iterator[Span]:
        return iter(())


#: The shared no-op instance every instrumented signature defaults to.
NULL_TELEMETRY = NullTelemetry()


def ensure_telemetry(telemetry: Optional[Telemetry]) -> "Telemetry | NullTelemetry":
    """Normalise an optional telemetry argument to a usable object."""
    return NULL_TELEMETRY if telemetry is None else telemetry
