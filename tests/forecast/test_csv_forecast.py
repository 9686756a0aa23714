"""CSV day-ahead forecast ingestion and signed regret reporting."""

import numpy as np
import pytest

from repro.forecast import (
    DAYAHEAD_SAMPLE_CSV,
    CsvForecast,
    forecast_model_by_name,
    hourly_truth,
)
from repro.grid.traces import CAISO_SAMPLE_CSV, GridTrace
from repro.scenarios import (
    ScenarioValidationError,
    get_scenario,
    run_scenario,
)
from repro.scenarios.spec import ForecastSpec


def csv_windows(model, truth, start_h, horizon_h):
    """``model``'s forecast rows for sites ``0..`` at ``start_h``."""
    start_h = np.asarray(start_h)
    forecast, seeing = model.windows(
        truth, np.arange(len(start_h)) % len(truth), start_h, horizon_h
    )
    assert seeing.all()
    return forecast


class TestCsvForecast:
    def test_window_samples_the_export(self):
        model = CsvForecast(DAYAHEAD_SAMPLE_CSV)
        series = GridTrace.from_csv(DAYAHEAD_SAMPLE_CSV)
        truth = hourly_truth([GridTrace.constant(100.0)], 24)
        window = csv_windows(model, truth, [0], 24)[0]
        assert window.shape == (24,)
        expected = series.intensities_at(
            np.arange(24, dtype=float) * 3600.0, wrap=True
        )
        assert np.array_equal(window, expected)

    def test_window_is_independent_of_the_site_trace(self):
        """The export's skill is whatever it was — the trace never leaks in."""
        model = CsvForecast(DAYAHEAD_SAMPLE_CSV)
        truth = hourly_truth(
            [GridTrace.constant(100.0), GridTrace.constant(900.0)], 13
        )
        a, b = csv_windows(model, truth, [1, 1], 12)
        assert np.array_equal(a, b)

    def test_windows_wrap_like_traces(self):
        model = CsvForecast(DAYAHEAD_SAMPLE_CSV)
        period_h = int(model.series.period_s // 3600.0)
        assert period_h * 3600.0 == model.series.period_s
        truth = hourly_truth([GridTrace.constant(100.0)], period_h + 6)
        early, late = csv_windows(model, truth, [0, period_h], 6)
        assert np.array_equal(early, late)

    def test_sample_tracks_the_measured_series_roughly(self):
        """The bundled forecast is a plausible day-ahead of the measured CSV."""
        forecast = GridTrace.from_csv(DAYAHEAD_SAMPLE_CSV)
        measured = GridTrace.from_csv(CAISO_SAMPLE_CSV)
        assert len(forecast.intensity_g_per_kwh) == len(measured.intensity_g_per_kwh)
        relative = (
            forecast.intensity_g_per_kwh / measured.intensity_g_per_kwh
        )
        assert np.all(np.abs(relative - 1.0) < 0.10)  # skillful but imperfect
        assert np.any(np.abs(relative - 1.0) > 0.005)

    def test_registry_requires_a_path(self):
        with pytest.raises(ValueError, match="csv_path"):
            forecast_model_by_name("csv")
        model = forecast_model_by_name("csv", csv_path=DAYAHEAD_SAMPLE_CSV)
        assert model.name == "csv"
        with pytest.raises(ValueError):
            CsvForecast("")

    def test_spec_requires_path_for_csv_model(self):
        with pytest.raises(ScenarioValidationError, match="csv_path"):
            ForecastSpec(model="csv")
        spec = ForecastSpec(model="csv", csv_path="caiso_dayahead_sample.csv")
        assert spec.csv_path == "caiso_dayahead_sample.csv"


class TestCsvForecastScenario:
    @pytest.fixture(scope="class")
    def result(self):
        spec = get_scenario("forecast-buffer").with_overrides(
            {
                "duration_days": 2,
                "sites.0.devices.count": 20,
                "sites.1.devices.count": 20,
                "routing.latency_probe_s": 0,
                "forecast.model": "csv",
                # A bare filename resolves against the bundled data
                # directory, mirroring trace.csv_path.
                "forecast.csv_path": "caiso_dayahead_sample.csv",
            }
        )
        return run_scenario(spec)

    def test_runs_end_to_end_with_regret_accounting(self, result):
        assert result.forecast_model == "csv"
        assert result.report.has_regret_accounting
        assert result.report.total_battery_discharge_kwh >= 0

    def test_raw_regret_is_the_unclamped_difference(self, result):
        report = result.report
        assert report.raw_forecast_regret_g() == pytest.approx(
            report.hindsight_avoided_g - report.carbon_avoided_g()
        )
        assert report.forecast_regret_g() == max(
            0.0, report.raw_forecast_regret_g()
        )
        summary = report.summary_dict()
        assert "forecast_regret_raw_kg" in summary
        assert summary["forecast_regret_raw_kg"] == pytest.approx(
            report.raw_forecast_regret_g() / 1000.0
        )
        assert result.raw_regret_g == report.raw_forecast_regret_g()

    def test_missing_export_names_the_field(self):
        spec = get_scenario("forecast-buffer").with_overrides(
            {
                "duration_days": 1,
                "forecast.model": "csv",
                "forecast.csv_path": "/does/not/exist.csv",
            }
        )
        from repro.scenarios import ScenarioRunner

        with pytest.raises(ScenarioValidationError, match="forecast.csv_path"):
            ScenarioRunner(spec).run()
