"""``busy_time`` and ``utilization_timeline`` against the full-scan oracle.

``Resource.busy_time`` bisects to the change points that overlap the
queried interval.  The oracle below is the loop it replaced: it walks every
change point and sums the overlap terms in series order.  Both must agree
bitwise on random occupancy series, including window edges that fall
exactly on event times, starts after the last event and zero-length
intervals.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource

CAPACITY = 4

#: Event times: exact binary fractions (so edges can land on them exactly)
#: mixed with arbitrary floats; duplicates model same-instant changes.
event_times = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=80).map(lambda k: k * 0.125),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    max_size=40,
).map(sorted)


def busy_time_full_scan(resource, start, end):
    """The full-scan loop: every change point, with ``end`` appended."""
    total = 0.0
    events = resource.occupancy_events + [(end, resource.in_use)]
    for (t0, occupancy), (t1, _) in zip(events, events[1:]):
        lo = max(t0, start)
        hi = min(t1, end)
        if hi > lo:
            total += occupancy * (hi - lo)
    return total


def _resource(times, occupancies):
    """A resource whose occupancy series is ``(0, 0)`` then the given points."""
    resource = Resource(Simulator(), capacity=CAPACITY)
    resource.occupancy_events = [(0.0, 0)] + list(zip(times, occupancies))
    resource.in_use = resource.occupancy_events[-1][1]
    return resource


@st.composite
def series_and_interval(draw):
    times = draw(event_times)
    occupancies = draw(
        st.lists(
            st.integers(min_value=0, max_value=CAPACITY),
            min_size=len(times),
            max_size=len(times),
        )
    )
    last = times[-1] if times else 0.0
    # Interval ends on event times, before/after the series, or anywhere.
    point = st.one_of(
        st.sampled_from([0.0, last, last + 0.5] + times),
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    )
    start, end = sorted((draw(point), draw(point)))
    if draw(st.booleans()):
        end = start  # zero-length interval
    return _resource(times, occupancies), start, end


def _bits(value):
    return float(value).hex()


@settings(max_examples=400, deadline=None)
@given(series_and_interval())
def test_busy_time_is_bitwise_equal_to_the_full_scan(case):
    resource, start, end = case
    assert _bits(resource.busy_time(start, end)) == _bits(
        busy_time_full_scan(resource, start, end)
    )


@settings(max_examples=200, deadline=None)
@given(series_and_interval())
def test_busy_time_after_the_last_event_holds_the_final_occupancy(case):
    resource, _, _ = case
    last_time, last_occupancy = resource.occupancy_events[-1]
    start, end = last_time + 1.0, last_time + 3.0
    got = resource.busy_time(start, end)
    assert _bits(got) == _bits(busy_time_full_scan(resource, start, end))
    assert got == last_occupancy * (end - start)


@settings(max_examples=200, deadline=None)
@given(
    series_and_interval(),
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 0.3]),
)
def test_timeline_windows_are_bitwise_equal_to_full_scan_windows(case, window):
    resource, start, end = case
    centres, values = resource.utilization_timeline(window, end=end, start=start)
    # Windows tile [start, end] on the grid start + i * window; the last
    # one is clipped to end.
    grid = np.arange(start, end, window)
    edges = np.append(grid[grid < end - 1e-9 * window], end)
    expected = [
        busy_time_full_scan(resource, lo, hi) / (CAPACITY * (hi - lo))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    assert [_bits(v) for v in values] == [_bits(v) for v in expected]
    assert np.array_equal(centres, (edges[:-1] + edges[1:]) / 2.0)
    assert np.all(centres < end)
