"""Mixed-cohort sites through the declarative scenario layer."""

import numpy as np
import pytest

from repro.scenarios import (
    DemandSpec,
    DeviceMixSpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioValidationError,
    SiteSpec,
    TraceSpec,
    get_scenario,
    run_scenario,
)


def mixed_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="mixed-tiny",
        sites=(
            SiteSpec(
                name="junkyard",
                trace=TraceSpec(kind="regional", region="caiso-like", n_days=3),
                cohorts=(
                    DeviceMixSpec(device="Pixel 3A", count=20),
                    DeviceMixSpec(
                        device="Nexus 4", count=20, requests_per_device_s=8.0
                    ),
                ),
            ),
        ),
        # High enough that the marginal-CCI waterfill must spill past the
        # efficient Pixel cohort into the Nexus cohort.
        demand=DemandSpec(fraction_of_capacity=0.85),
        duration_days=2,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Spec: round trips, overrides, validation
# ---------------------------------------------------------------------------


class TestCohortsSpec:
    def test_round_trips_through_dict_and_json(self):
        spec = mixed_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_device_mixes_prefers_cohorts(self):
        spec = mixed_spec()
        assert len(spec.sites[0].device_mixes) == 2
        assert spec.sites[0].total_devices == 40
        single = SiteSpec(name="solo")
        assert single.device_mixes == (single.devices,)

    def test_dotted_override_reaches_into_cohorts(self):
        spec = mixed_spec().with_overrides({"sites.0.cohorts.1.count": 55})
        assert spec.sites[0].cohorts[1].count == 55
        assert spec.sites[0].cohorts[0].count == 20

    def test_bad_cohort_count_names_the_path(self):
        with pytest.raises(ScenarioValidationError, match=r"sites\.0\.cohorts\.1"):
            mixed_spec().with_overrides({"sites.0.cohorts.1.count": 0})

    def test_devices_next_to_cohorts_is_rejected(self):
        """A mixed site has no use for ``devices``: setting it must fail,
        not run the unchanged site under a different spec hash."""
        with pytest.raises(
            ScenarioValidationError, match=r"sites\.0: devices must be left"
        ):
            mixed_spec().with_overrides({"sites.0.devices.count": 5})
        with pytest.raises(ScenarioValidationError, match="devices must be left"):
            SiteSpec(
                name="both",
                devices=DeviceMixSpec(device="Nexus 4"),
                cohorts=(DeviceMixSpec(device="Pixel 3A", count=5),),
            )

    def test_unknown_cohort_device_names_the_path(self):
        spec = mixed_spec().with_overrides(
            {"sites.0.cohorts.1.device": "Fairphone 2"}
        )
        with pytest.raises(
            ScenarioValidationError, match=r"sites\.0\.cohorts\.1\.device"
        ):
            ScenarioRunner(spec).build_sites()


# ---------------------------------------------------------------------------
# Runner: resolution and results
# ---------------------------------------------------------------------------


class TestMixedRunner:
    def test_builds_one_site_with_two_cohorts(self):
        sites = ScenarioRunner(mixed_spec()).build_sites()
        assert len(sites) == 1
        assert [entry.device.name for entry in sites[0].cohorts] == [
            "Pixel 3A",
            "Nexus 4",
        ]
        assert sites[0].cohorts[1].requests_per_device_s == 8.0

    def test_nominal_capacity_sums_cohorts(self):
        runner = ScenarioRunner(mixed_spec())
        assert runner.nominal_capacity_rps() == pytest.approx(
            20 * 20.0 + 20 * 8.0
        )

    def test_single_cohort_site_is_bitwise_equal_to_devices_spelling(self):
        """cohorts=(one mix,) and devices=mix resolve to identical results."""
        legacy = run_scenario(
            ScenarioSpec(
                name="solo",
                sites=(
                    SiteSpec(
                        name="ca",
                        trace=TraceSpec(kind="regional", region="caiso-like",
                                        n_days=3),
                        devices=DeviceMixSpec(device="Pixel 3A", count=15),
                    ),
                ),
                duration_days=2,
            )
        )
        via_cohorts = run_scenario(
            ScenarioSpec(
                name="solo",
                sites=(
                    SiteSpec(
                        name="ca",
                        trace=TraceSpec(kind="regional", region="caiso-like",
                                        n_days=3),
                        cohorts=(DeviceMixSpec(device="Pixel 3A", count=15),),
                    ),
                ),
                duration_days=2,
            )
        )
        assert legacy.summary_dict() == via_cohorts.summary_dict()
        assert np.array_equal(
            legacy.report.served_rps, via_cohorts.report.served_rps
        )
        assert np.array_equal(
            legacy.report.operational_g, via_cohorts.report.operational_g
        )
        assert np.array_equal(
            legacy.report.active_devices, via_cohorts.report.active_devices
        )

    def test_mixed_run_reports_per_cohort_series(self):
        result = run_scenario(mixed_spec())
        report = result.report
        assert report.cohort_labels == (
            "junkyard/Pixel 3A",
            "junkyard/Nexus 4",
        )
        summaries = report.cohort_summaries()
        assert [s.site for s in summaries] == ["junkyard", "junkyard"]
        assert all(s.served_requests > 0 for s in summaries)

    def test_two_cohorts_of_one_device_keep_distinct_labels(self):
        spec = get_scenario("heterogeneous-cohorts").with_overrides(
            {"duration_days": 1, "sites.0.cohorts.1.device": "Pixel 3A"}
        )
        report = run_scenario(spec).report
        assert report.cohort_labels == (
            "junkyard/Pixel 3A#0",
            "junkyard/Pixel 3A#1",
        )
        summaries = report.cohort_summaries()
        assert [s.label for s in summaries] == list(report.cohort_labels)

    def test_economics_prices_each_device_type(self):
        """Mixed-site purchase = sum of per-type purchases + peripherals."""
        from repro.devices.catalog import get_device

        result = run_scenario(mixed_spec())
        cost = result.site_costs["junkyard"]
        expected_purchase = (
            20 * get_device("Pixel 3A").purchase_price_usd
            + 20 * get_device("Nexus 4").purchase_price_usd
        )
        assert cost.purchase_usd == pytest.approx(expected_purchase)
        assert cost.peripherals_usd > 0
        assert cost.energy_usd > 0

    def test_mixed_dispatch_wear_priced_per_type(self):
        """Dispatched throughput shows up as maintenance on a mixed site."""
        spec = mixed_spec().with_overrides(
            {"charging.coupling": "dispatch", "routing.latency_probe_s": 0}
        )
        dispatched = run_scenario(spec)
        decoupled = run_scenario(
            spec.with_overrides({"charging.coupling": "none"})
        )
        assert dispatched.report.total_battery_discharge_kwh > 0
        wear = (
            dispatched.site_costs["junkyard"].maintenance_usd
            - decoupled.site_costs["junkyard"].maintenance_usd
        )
        assert wear > 0

    def test_migrated_preset_runs_end_to_end(self):
        spec = get_scenario("heterogeneous-cohorts").with_overrides(
            {"duration_days": 1}
        )
        result = run_scenario(spec)
        assert len(result.report.site_names) == 1
        assert result.report.n_cohorts == 2
        assert result.report.total_served_requests > 0
        served = result.report.cohort_served_rps.sum(axis=0)
        # Marginal-CCI fills the efficient Pixel cohort first; the Nexus
        # cohort only catches peak-hour spill.
        assert served[0] > served[1] >= 0
