"""``busy_time`` and ``utilization_timeline`` against the full-scan oracle.

:func:`~repro.simulation.metrics.busy_time` bisects to the change points
of an occupancy series that overlap the queried interval.  The oracle
below is the loop it replaced: it walks every change point and sums the
overlap terms in series order.  Both must agree bitwise on random
occupancy series, including window edges that fall exactly on event
times, starts after the last event and zero-length intervals.  Example
cases pin the clipped last window, aligned run ends, empty and reversed
intervals and the argument checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.metrics import busy_time, utilization_timeline

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


def busy_time_full_scan(occupancy, start, end):
    """The full-scan loop: every change point, with ``end`` appended."""
    total = 0.0
    events = occupancy + [(end, occupancy[-1][1])]
    for (t0, occupancy), (t1, _) in zip(events, events[1:]):
        lo = max(t0, start)
        hi = min(t1, end)
        if hi > lo:
            total += occupancy * (hi - lo)
    return total


def _occupancy(times, occupancies):
    """The occupancy series ``(0, 0)`` followed by the given points."""
    return [(0.0, 0)] + list(zip(times, occupancies))


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
    return _occupancy(times, occupancies), start, end


def _bits(value):
    return float(value).hex()


@settings(max_examples=400, deadline=None)
@given(series_and_interval())
def test_busy_time_is_bitwise_equal_to_the_full_scan(case):
    occupancy, start, end = case
    assert _bits(busy_time(occupancy, start, end)) == _bits(
        busy_time_full_scan(occupancy, start, end)
    )


@settings(max_examples=200, deadline=None)
@given(series_and_interval())
def test_busy_time_after_the_last_event_holds_the_final_occupancy(case):
    occupancy, _, _ = case
    last_time, last_occupancy = occupancy[-1]
    start, end = last_time + 1.0, last_time + 3.0
    got = busy_time(occupancy, start, end)
    assert _bits(got) == _bits(busy_time_full_scan(occupancy, start, end))
    assert got == last_occupancy * (end - start)


@settings(max_examples=200, deadline=None)
@given(
    series_and_interval(),
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 0.3]),
)
def test_timeline_windows_are_bitwise_equal_to_full_scan_windows(case, window):
    occupancy, start, end = case
    centres, values = utilization_timeline(
        occupancy, CAPACITY, window, end=end, start=start
    )
    # Windows tile [start, end] on the grid start + i * window; the last
    # one is clipped to end.
    grid = np.arange(start, end, window)
    edges = np.append(grid[grid < end - 1e-9 * window], end)
    expected = [
        busy_time_full_scan(occupancy, lo, hi) / (CAPACITY * (hi - lo))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    assert [_bits(v) for v in values] == [_bits(v) for v in expected]
    assert np.array_equal(centres, (edges[:-1] + edges[1:]) / 2.0)
    assert np.all(centres < end)


@pytest.mark.parametrize("still_running", [False, True])
def test_short_run_window_is_clipped_to_the_run_end(still_running):
    """A 0.15 s run, busy throughout, is one 0.15 s window at 100%.

    Covers a job that ends exactly at the run end and one still running.
    """
    occupancy = [(0.0, 1)] if still_running else [(0.0, 1), (0.15, 0)]
    times, values = utilization_timeline(occupancy, 1, 1.0, end=0.15)
    assert times.tolist() == [0.075]
    assert values.tolist() == [1.0]
    assert busy_time(occupancy, 0.0, 0.15) / 0.15 == 1.0


@pytest.mark.parametrize(
    "end, window, windows", [(0.2, 0.1, 2), (2.2, 0.2, 11), (2.7, 0.3, 9)]
)
def test_aligned_end_gets_no_window_past_it(end, window, windows):
    """Aligned ends get whole windows only: no extra window past ``end``, and
    no sliver when the grid lands one rounding step short of it (9 x 0.3)."""
    occupancy = [(0.0, 1), (end, 0)]
    times, values = utilization_timeline(occupancy, 1, window, end=end)
    assert len(times) == windows
    assert times[-1] < end
    assert values.tolist() == pytest.approx([1.0] * windows)


@pytest.mark.parametrize("start, end", [(0.0, 0.0), (1.0, 0.5)])
def test_timeline_of_an_empty_or_reversed_interval_is_empty(start, end):
    times, values = utilization_timeline([(0.0, 1)], 1, 1.0, end=end, start=start)
    assert len(times) == len(values) == 0


def test_busy_time_sums_units_and_rejects_a_reversed_interval():
    occupancy = [(0.0, 0), (0.0, 1), (0.0, 2), (1.0, 1), (1.0, 0)]
    assert busy_time(occupancy, 0.0, 1.0) == 2.0
    assert busy_time(occupancy, 0.5, 3.0) == 1.0
    assert busy_time(occupancy, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        busy_time(occupancy, 1.0, 0.5)
    with pytest.raises(ValueError):
        utilization_timeline(occupancy, 2, 0.0, end=1.0)
