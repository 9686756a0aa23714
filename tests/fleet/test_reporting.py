"""Fleet reports: aggregates, series, and the analysis-layer integration."""

import numpy as np
import pytest

from fleet_oracles import cohort_summaries_loop, site_summaries_loop, summary_bits
from fleet_specs import fleet_spec, site_spec, two_site_spec
from repro.analysis import fig10_fleet_orchestration, render_fleet_report
from repro.fleet import (
    DiurnalDemand,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    compare_reports,
)
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import DeviceMixSpec


@pytest.fixture(scope="module")
def report():
    demand = DiurnalDemand(mean_rps=0.8 * 20 * DEFAULT_REQUESTS_PER_DEVICE_S)
    sites = ScenarioRunner(two_site_spec(20, seed=6, n_trace_days=7)).build_sites()
    return FleetSimulation(sites, GreedyLowestIntensityRouting(), demand).run(10)


class TestFleetReport:
    def test_totals_are_consistent(self, report):
        summaries = report.site_summaries()
        assert sum(s.served_requests for s in summaries) == pytest.approx(
            report.total_served_requests
        )
        assert sum(s.operational_carbon_g for s in summaries) == pytest.approx(
            report.total_operational_carbon_g
        )
        assert report.total_carbon_g == pytest.approx(
            report.total_operational_carbon_g + report.total_replacement_carbon_g
        )

    def test_cci_matches_hand_computation(self, report):
        assert report.fleet_cci_g_per_request() == pytest.approx(
            report.total_carbon_g / report.total_served_requests
        )

    def test_daily_series_integrate_to_totals(self, report):
        assert report.daily_carbon_g().sum() == pytest.approx(report.total_carbon_g)
        assert len(report.availability_series()) == 10
        # The running CCI converges to the final fleet CCI on the last day.
        assert report.daily_cci_series()[-1] == pytest.approx(
            report.fleet_cci_g_per_request()
        )

    def test_shape_validation(self, report):
        from dataclasses import replace

        with pytest.raises(ValueError, match="shape"):
            replace(
                report, intensity_g_per_kwh=report.intensity_g_per_kwh[:, :1]
            )


def test_compare_reports_ranks_by_cci(report):
    rows = compare_reports({"a": report, "b": report})
    assert [name for name, _, _ in rows] == ["a", "b"]
    assert rows[0][1] == pytest.approx(report.fleet_cci_g_per_request())


def test_render_fleet_report_mentions_sites_and_cci(report):
    text = render_fleet_report(report)
    assert "texas" in text and "cascadia" in text
    assert "fleet CCI" in text
    assert "FLEET (greedy-lowest-intensity)" in text


def test_fig10_builder_end_to_end():
    data = fig10_fleet_orchestration(n_devices_per_site=25, n_days=7, seed=2)
    assert set(data.policies()) == {
        "round-robin",
        "greedy-lowest-intensity",
        "marginal-cci",
    }
    assert data.savings_vs("greedy-lowest-intensity") > 0
    curves = data.daily_cci_curves()
    assert all(len(curve) == 7 for curve in curves.values())
    assert data.cci("greedy-lowest-intensity") < data.cci("round-robin")


@pytest.fixture(scope="module")
def mixed_report():
    """Three sites over 12 churning days with coupled dispatch: a Pixel 3A /
    Nexus 4 rack, a battery-less server site and a plain Pixel site."""
    spec = fleet_spec(
        site_spec(
            "rack",
            "caiso-like",
            n_trace_days=2,
            cohorts=(
                DeviceMixSpec(count=30),
                DeviceMixSpec("Nexus 4", 20, requests_per_device_s=8.0),
            ),
        ),
        site_spec("servers", "ercot-like", count=3, device="HP ProLiant DL380 G6",
                  n_trace_days=2),
        site_spec("phones", "hydro-heavy", count=25, n_trace_days=2),
        seed=5,
    ).with_overrides(
        {
            "duration_days": 12,
            "routing.latency_probe_s": 0.0,
            "charging.policy": "smart",
            "charging.coupling": "dispatch",
            "churn.annual_failure_rate": 3.0,
            "churn.age_acceleration_per_year": 6.0,
            "churn.intake_per_day": 0.5,
        }
    )
    return ScenarioRunner(spec).run().report


class TestSummariesMatchTheColumnLoop:
    def test_the_fixture_covers_the_layouts(self, mixed_report):
        assert mixed_report.n_cohorts == 4
        assert list(mixed_report.cohort_site_index) == [0, 0, 1, 2]
        discharge = mixed_report.cohort_battery_discharge_kwh()
        assert discharge[2] == 0.0 and discharge[[0, 1, 3]].min() > 0
        assert mixed_report.cohort_failures.sum() > 0

    def test_site_summaries(self, mixed_report):
        assert summary_bits(mixed_report.site_summaries()) == summary_bits(
            site_summaries_loop(mixed_report)
        )

    def test_cohort_summaries(self, mixed_report):
        assert summary_bits(mixed_report.cohort_summaries()) == summary_bits(
            cohort_summaries_loop(mixed_report)
        )
