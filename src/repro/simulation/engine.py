"""A small process-based discrete-event simulation engine.

The cloudlet serving experiments (Figures 7-9) need a queueing-level model of
microservice requests flowing through CPUs and a shared wireless network.
This engine provides exactly the primitives those models need and nothing
more:

* a :class:`Simulator` with a virtual clock and an event heap of plain
  ``(time, seq, callback, arg)`` tuples (a tuple heap, ties by scheduling
  order: ``seq`` is unique, so comparison never reaches the callback);
* **processes** — plain Python generators that ``yield`` waitable objects —
  in the style of SimPy, giving request-handling code a natural sequential
  form ("acquire a core, compute for 3 ms, send the response over the
  network, wait for all downstream calls");
* waitables: :class:`Timeout`, resource acquisitions (see
  :mod:`repro.simulation.resources`), completed-process handles, and
  :class:`AllOf` for fan-out / fan-in.

The engine is deterministic: ties in event time are broken by scheduling
order, and all randomness lives in the caller-provided RNG streams.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Tuple


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
