"""The oracle discrete-event engine: clock, processes, fan-in."""

import pytest

from des_oracle import AllOf, Simulator, Timeout


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until_orders_events():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda _: order.append("b"))
    sim.schedule(1.0, lambda _: order.append("a"))
    sim.schedule(3.0, lambda _: order.append("c"))
    sim.run_until(2.5)
    assert order == ["a", "b"]
    assert sim.now == 2.5
    sim.run_until(5.0)
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda _: order.append("first"))
    sim.schedule(1.0, lambda _: order.append("second"))
    sim.run()
    assert order == ["first", "second"]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda _: None)
    with pytest.raises(ValueError):
        sim.run_until(-1.0)


def test_process_timeout_advances_clock():
    sim = Simulator()
    log = []

    def worker():
        yield Timeout(1.5)
        log.append(sim.now)
        yield Timeout(0.5)
        log.append(sim.now)

    sim.spawn(worker())
    sim.run()
    assert log == [1.5, 2.0]


def test_process_return_value_available_to_joiner():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(1.0)
        return 42

    def parent():
        handle = sim.spawn(child())
        value = yield handle
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == [42]


def test_join_already_completed_process():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(0.1)
        return "done"

    def parent(handle):
        yield Timeout(5.0)
        value = yield handle
        results.append((sim.now, value))

    handle = sim.spawn(child())
    sim.spawn(parent(handle))
    sim.run()
    assert results == [(5.0, "done")]


def test_allof_waits_for_slowest_child():
    sim = Simulator()
    completion = {}

    def child(delay, name):
        yield Timeout(delay)
        return name

    def parent():
        children = [sim.spawn(child(d, n)) for d, n in ((1.0, "a"), (3.0, "b"), (2.0, "c"))]
        values = yield AllOf(children)
        completion["time"] = sim.now
        completion["values"] = values

    sim.spawn(parent())
    sim.run()
    assert completion["time"] == pytest.approx(3.0)
    assert completion["values"] == ["a", "b", "c"]


def test_allof_with_already_completed_children():
    sim = Simulator()
    seen = []

    def child():
        return "x"
        yield  # pragma: no cover

    def parent():
        children = [sim.spawn(child()) for _ in range(2)]
        yield Timeout(1.0)
        values = yield AllOf(children)
        seen.extend(values)

    sim.spawn(parent())
    sim.run()
    assert seen == ["x", "x"]


def test_yielding_non_waitable_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_timeout_rejects_negative_delay():
    with pytest.raises(ValueError):
        Timeout(-0.5)


def test_runaway_guard():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(0.001)

    sim.spawn(forever())
    with pytest.raises(RuntimeError):
        sim.run(max_events=1_000)


def test_tie_breaking_is_deterministic_across_runs():
    """Many events at the same instant replay in the same order every run."""

    def run_once(seed_order):
        sim = Simulator()
        order = []
        # Schedule from a shuffled label list; ties at t=1.0 must replay in
        # *scheduling* order, making the result a pure function of the input
        # sequence (not of heap internals or hash order).
        for label in seed_order:
            sim.schedule(1.0, order.append, label)
        sim.schedule(0.5, order.append, "early")
        sim.run()
        return order

    labels = [f"event-{i}" for i in range(50)]
    first = run_once(labels)
    second = run_once(labels)
    assert first == second
    assert first[0] == "early"
    assert first[1:] == labels


def test_tied_process_timeouts_resume_in_spawn_order():
    sim = Simulator()
    resumed = []

    def proc(name):
        yield Timeout(2.0)
        resumed.append(name)

    for name in ("a", "b", "c", "d"):
        sim.spawn(proc(name))
    sim.run()
    assert resumed == ["a", "b", "c", "d"]


def test_zero_delay_events_run_before_later_events_and_fifo():
    sim = Simulator()
    order = []
    sim.schedule(0.0, order.append, "first")
    sim.schedule(1e-12, order.append, "later")
    sim.schedule(0.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "later"]


def test_tied_events_never_compare_callbacks_or_arguments():
    """Heap entries are (time, seq, callback, arg) tuples; seq is unique, so
    unorderable callbacks and arguments at one instant never get compared."""
    sim = Simulator()
    seen = []
    for index in range(20):
        sim.schedule(1.0, lambda payload: seen.append(payload["i"]), {"i": index})
    sim.run()
    assert seen == list(range(20))


def test_events_processed_counts_run_events_only():
    sim = Simulator()
    assert sim.events_processed == 0
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda _: None)
    sim.run_until(2.5)
    assert sim.events_processed == 2
    sim.run()
    assert sim.events_processed == 3
