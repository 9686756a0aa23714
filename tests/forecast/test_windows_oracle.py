"""Every row of a batched forecast equals the one-window oracle, bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st

from forecast_oracle import oracle_window
from repro import units
from repro.forecast import (
    DAYAHEAD_SAMPLE_CSV,
    CsvForecast,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
    hourly_truth,
)
from repro.fleet.sites import REGIONAL_GENERATORS, regional_trace
from repro.grid.traces import GridTrace

CSV_MODEL = CsvForecast(DAYAHEAD_SAMPLE_CSV)


@st.composite
def traces(draw):
    """A short regional trace, or a random one whose samples fall off the
    hour grid, so windows wrap past the trace end and interpolate."""
    if draw(st.booleans()):
        return regional_trace(
            draw(st.sampled_from(sorted(REGIONAL_GENERATORS))),
            n_days=draw(st.integers(1, 2)),
            seed=draw(st.integers(0, 50)),
        )
    values = draw(
        st.lists(st.floats(0.0, 900.0), min_size=2, max_size=60)
    )
    interval = draw(st.sampled_from([300.0, 900.0, 2_700.0, 3_600.0, 5_400.0]))
    return GridTrace.from_series(values, interval_s=interval)


models = st.one_of(
    st.just(PerfectForecast()),
    st.just(PersistenceForecast()),
    st.just(CSV_MODEL),
    st.builds(
        NoisyOracleForecast,
        noise_sigma=st.sampled_from([0.0, 0.1, 0.4]),
        seed=st.integers(0, 3),
    ),
)


@st.composite
def batches(draw):
    sites = draw(st.lists(traces(), min_size=1, max_size=4))
    n_steps = draw(st.integers(1, 96))
    horizon_h = draw(st.integers(1, 72))
    # A small pool of (site, start) pairs, drawn with repeats, so batches
    # carry duplicate rows.
    pool = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sites) - 1), st.integers(0, n_steps - 1)
            ),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return sites, n_steps, horizon_h, rows


@settings(max_examples=150, deadline=None)
@given(model=models, batch=batches())
def test_every_row_is_the_oracle_window(model, batch):
    sites, n_steps, horizon_h, rows = batch
    truth = hourly_truth(sites, n_steps + horizon_h)
    site_index = np.array([site for site, _ in rows])
    start_h = np.array([start for _, start in rows])
    forecast, seeing = model.windows(truth, site_index, start_h, horizon_h)
    assert forecast.shape == (len(rows), horizon_h)
    assert seeing.shape == (len(rows),)
    for row, (site, start) in enumerate(rows):
        expected = oracle_window(
            model, sites[site], start * units.SECONDS_PER_HOUR, horizon_h, site
        )
        if expected is None:
            assert not seeing[row]
            assert np.all(np.isnan(forecast[row]))
            continue
        assert seeing[row]
        assert [value.hex() for value in forecast[row].tolist()] == [
            value.hex() for value in expected.tolist()
        ]
    # Duplicate rows share one window.
    for row, key in enumerate(rows):
        first = rows.index(key)
        np.testing.assert_array_equal(forecast[row], forecast[first])
