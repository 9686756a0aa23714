"""Forecast models: perfect, persistence, and the noisy oracle."""

import numpy as np
import pytest

from repro import units
from repro.forecast import (
    FORECAST_MODELS,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
    forecast_model_by_name,
    hourly_truth,
)
from repro.fleet.sites import regional_trace


@pytest.fixture(scope="module")
def trace():
    return regional_trace("caiso-like", n_days=4, seed=2021)


HOUR = units.SECONDS_PER_HOUR
DAY = units.SECONDS_PER_DAY


def one_window(model, trace, start_s, horizon_h, site_index=0):
    """One row of ``model.windows``: site ``site_index`` on ``trace`` (every
    site shares it), from ``start_s``; ``None`` where the model is blind."""
    start_h = int(start_s // HOUR)
    truth = hourly_truth([trace] * (site_index + 1), start_h + max(horizon_h, 1))
    forecast, seeing = model.windows(
        truth, np.array([site_index]), np.array([start_h]), horizon_h
    )
    assert forecast.shape == (1, horizon_h)
    return forecast[0] if seeing[0] else None


class TestHourlyTruth:
    def test_rows_are_the_wrapped_traces_at_hour_starts(self, trace):
        other = regional_trace("ercot-like", n_days=1, seed=5)
        truth = hourly_truth([trace, other], 200)
        times = np.arange(200) * HOUR
        assert truth.shape == (2, 200)
        assert np.array_equal(truth[0], trace.intensities_at(times, wrap=True))
        assert np.array_equal(truth[1], other.intensities_at(times, wrap=True))


class TestPerfectForecast:
    def test_window_is_the_true_trace(self, trace):
        start = 2 * DAY
        window = one_window(PerfectForecast(), trace, start, 24)
        times = start + np.arange(24) * HOUR
        assert np.array_equal(window, trace.intensities_at(times, wrap=True))

    def test_window_wraps_past_the_trace_end(self, trace):
        window = one_window(PerfectForecast(), trace, 3 * DAY + 20 * HOUR, 12)
        assert window.shape == (12,)
        assert np.all(np.isfinite(window))

    def test_bad_horizon_rejected(self, trace):
        with pytest.raises(ValueError, match="horizon"):
            one_window(PerfectForecast(), trace, 0.0, 0)


class TestPersistenceForecast:
    def test_equals_the_trace_shifted_one_day(self, trace):
        start = 2 * DAY
        window = one_window(PersistenceForecast(), trace, start, 24)
        yesterday = one_window(PerfectForecast(), trace, start - DAY, 24)
        assert np.array_equal(window, yesterday)

    def test_mid_day_windows_shift_too(self, trace):
        start = DAY + 6 * HOUR
        window = one_window(PersistenceForecast(), trace, start, 36)
        times = start - DAY + np.arange(36) * HOUR
        assert np.array_equal(window, trace.intensities_at(times, wrap=True))

    def test_first_day_has_no_forecast(self, trace):
        assert one_window(PersistenceForecast(), trace, 0.0, 24) is None
        assert one_window(PersistenceForecast(), trace, DAY - HOUR, 24) is None
        assert one_window(PersistenceForecast(), trace, DAY, 24) is not None


class TestNoisyOracleForecast:
    def test_sigma_zero_equals_perfect(self, trace):
        noisy = NoisyOracleForecast(noise_sigma=0.0, seed=7)
        perfect = PerfectForecast()
        for start in (0.0, DAY, 2 * DAY + 5 * HOUR):
            assert np.array_equal(
                one_window(noisy, trace, start, 24), one_window(perfect, trace, start, 24)
            )

    def test_seed_determinism(self, trace):
        first = NoisyOracleForecast(noise_sigma=0.3, seed=11)
        second = NoisyOracleForecast(noise_sigma=0.3, seed=11)
        assert np.array_equal(
            one_window(first, trace, DAY, 24), one_window(second, trace, DAY, 24)
        )

    def test_determinism_is_call_order_independent(self, trace):
        model = NoisyOracleForecast(noise_sigma=0.3, seed=11)
        late_then_early = (
            one_window(model, trace, 2 * DAY, 24),
            one_window(model, trace, DAY, 24),
        )
        fresh = NoisyOracleForecast(noise_sigma=0.3, seed=11)
        assert np.array_equal(one_window(fresh, trace, DAY, 24), late_then_early[1])
        assert np.array_equal(one_window(fresh, trace, 2 * DAY, 24), late_then_early[0])

    def test_a_row_does_not_depend_on_its_batch(self, trace):
        """Reordered rows draw the same noise: each is keyed, not streamed."""
        model = NoisyOracleForecast(noise_sigma=0.3, seed=11)
        truth = hourly_truth([trace, trace], 96)
        sites = np.array([0, 1, 0])
        starts = np.array([48, 24, 24])
        forward, _ = model.windows(truth, sites, starts, 24)
        backward, _ = model.windows(truth, sites[::-1], starts[::-1], 24)
        assert np.array_equal(forward, backward[::-1])
        assert np.array_equal(forward[2], one_window(model, trace, DAY, 24))

    def test_different_seeds_and_sites_differ(self, trace):
        a = one_window(NoisyOracleForecast(noise_sigma=0.3, seed=1), trace, DAY, 24)
        b = one_window(NoisyOracleForecast(noise_sigma=0.3, seed=2), trace, DAY, 24)
        assert not np.array_equal(a, b)
        model = NoisyOracleForecast(noise_sigma=0.3, seed=1)
        assert not np.array_equal(
            one_window(model, trace, DAY, 24, site_index=0),
            one_window(model, trace, DAY, 24, site_index=1),
        )

    def test_noise_is_multiplicative_and_positive(self, trace):
        window = one_window(NoisyOracleForecast(noise_sigma=0.5, seed=3), trace, DAY, 48)
        assert np.all(window > 0)
        truth = one_window(PerfectForecast(), trace, DAY, 48)
        assert not np.array_equal(window, truth)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            NoisyOracleForecast(noise_sigma=-0.1)


class TestRegistry:
    def test_every_bundled_model_resolves(self):
        from repro.forecast.models import DAYAHEAD_SAMPLE_CSV

        for name in FORECAST_MODELS:
            model = forecast_model_by_name(
                name, noise_sigma=0.2, seed=5, csv_path=DAYAHEAD_SAMPLE_CSV
            )
            assert model.name == name

    def test_noisy_carries_its_parameters(self):
        model = forecast_model_by_name("noisy", noise_sigma=0.4, seed=9)
        assert model.noise_sigma == 0.4
        assert model.seed == 9

    def test_unknown_name_lists_the_known_models(self):
        with pytest.raises(ValueError, match="perfect"):
            forecast_model_by_name("clairvoyant")
