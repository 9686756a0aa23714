"""ScenarioRunner: resolution, determinism, economics, and error paths."""

import numpy as np
import pytest

from repro.scenarios import (
    ChargingSpec,
    ChurnSpec,
    DemandSpec,
    DeviceMixSpec,
    EconomicsSpec,
    RoutingSpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioValidationError,
    SiteSpec,
    TraceSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)


def tiny_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        sites=(
            SiteSpec(
                name="dirty",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=600.0, n_days=2),
                devices=DeviceMixSpec(count=10),
            ),
            SiteSpec(
                name="clean",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=30.0, n_days=2),
                devices=DeviceMixSpec(count=10),
            ),
        ),
        routing=RoutingSpec(policy="greedy-lowest-intensity", latency_probe_s=2.0),
        demand=DemandSpec(fraction_of_capacity=0.4),
        duration_days=2,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Resolution and the unified result
# ---------------------------------------------------------------------------


def test_result_unifies_report_cost_latency():
    result = run_scenario(tiny_spec())
    assert result.report.site_names == ("dirty", "clean")
    assert result.report.total_served_requests > 0
    assert result.cci_g_per_request > 0
    assert set(result.site_costs) == {"dirty", "clean"}
    assert result.usd_per_request > 0
    assert result.latency is not None and result.latency.median_ms > 0
    summary = result.summary_dict()
    assert summary["scenario"] == "tiny"
    assert summary["usd_per_request"] == result.usd_per_request


def test_greedy_routing_prefers_clean_constant_site():
    result = run_scenario(tiny_spec())
    served = result.report.served_rps.sum(axis=0)
    clean = result.report.site_names.index("clean")
    dirty = result.report.site_names.index("dirty")
    assert served[clean] > served[dirty]


def test_economics_disabled_yields_no_costs():
    spec = tiny_spec(economics=EconomicsSpec(enabled=False))
    result = run_scenario(spec)
    assert result.site_costs == {}
    assert result.usd_per_request == 0.0
    assert "usd_per_request" not in result.summary_dict()


def test_latency_probe_disabled():
    spec = tiny_spec(routing=RoutingSpec(policy="round-robin", latency_probe_s=0.0))
    result = run_scenario(spec)
    assert result.latency is None


def test_charging_study_reports_savings_on_duck_curve_grid():
    spec = ScenarioSpec(
        name="charging",
        sites=(
            SiteSpec(
                name="ca",
                trace=TraceSpec(kind="regional", region="caiso-like", n_days=7),
                devices=DeviceMixSpec(count=5),
            ),
        ),
        routing=RoutingSpec(policy="round-robin", latency_probe_s=0.0),
        charging=ChargingSpec(policy="smart", coupling="estimate"),
        duration_days=1,
    )
    result = run_scenario(spec)
    assert result.charging_mode == "estimate"
    assert "ca" in result.charging_savings
    assert 0.0 < result.charging_savings["ca"] < 0.5


def _carbon_buffer_spec(**overrides):
    base = {
        "duration_days": 4,
        "sites.0.devices.count": 15,
        "sites.1.devices.count": 15,
        "routing.latency_probe_s": 0,
    }
    base.update(overrides)
    return get_scenario("carbon-buffer").with_overrides(base)


def test_dispatch_coupling_reports_realised_savings():
    result = run_scenario(_carbon_buffer_spec())
    assert result.charging_mode == "dispatch"
    assert result.report.total_battery_discharge_kwh > 0
    assert set(result.charging_savings) == {"texas", "cascadia"}
    assert all(value > 0 for value in result.charging_savings.values())
    summary = result.summary_dict()
    assert summary["charging_coupling"] == "dispatch"
    assert summary["carbon_avoided_kg"] > 0


def test_dispatch_never_increases_operational_carbon():
    """Regression: coupling="dispatch" must not emit more than coupling="none"."""
    dispatched = run_scenario(_carbon_buffer_spec())
    decoupled = run_scenario(
        _carbon_buffer_spec(**{"charging.coupling": "none"})
    )
    # Identical fleets, routing, and churn trajectories...
    assert np.isclose(
        dispatched.report.total_served_requests,
        decoupled.report.total_served_requests,
    )
    # ...so the ledger can only help.
    assert (
        dispatched.report.total_operational_carbon_g
        <= decoupled.report.total_operational_carbon_g
    )
    assert dispatched.cci_g_per_request < decoupled.cci_g_per_request


def test_dispatch_scenario_is_deterministic():
    first = run_scenario(_carbon_buffer_spec())
    second = run_scenario(_carbon_buffer_spec())
    assert first.summary_dict() == second.summary_dict()
    assert np.array_equal(first.report.battery_kwh, second.report.battery_kwh)
    assert np.array_equal(first.report.soc, second.report.soc)


def test_dispatch_wear_priced_into_maintenance():
    """Battery throughput shows up as pro-rated pack wear in the dollars."""
    dispatched = run_scenario(_carbon_buffer_spec())
    decoupled = run_scenario(
        _carbon_buffer_spec(**{"charging.coupling": "none"})
    )
    wear = sum(
        cost.maintenance_usd for cost in dispatched.site_costs.values()
    ) - sum(cost.maintenance_usd for cost in decoupled.site_costs.values())
    assert wear > 0


def test_wear_derate_flows_to_the_routing_policy():
    spec = tiny_spec(routing=RoutingSpec(policy="marginal-cci", wear_derate=0.4,
                                         latency_probe_s=0.0))
    result = run_scenario(spec)
    assert result.report.total_served_requests > 0


def test_explicit_churn_and_intake_flow_through():
    spec = tiny_spec()
    spec = spec.with_overrides(
        {
            "sites.0.churn.intake_per_day": 0.0,
            "sites.0.churn.initial_spares": 0,
            "sites.0.churn.swap_batteries": False,
        }
    )
    sites = ScenarioRunner(spec).build_sites()
    assert sites[0].cohorts[0].intake.arrivals_per_day == 0.0
    assert sites[0].cohorts[0].intake.initial_spares == 0
    assert sites[0].cohorts[0].policy.swap_batteries is False
    # site 1 keeps the steady-state default
    assert sites[1].cohorts[0].intake.arrivals_per_day > 0.0


def test_csv_trace_source_resolves():
    result = run_scenario(
        get_scenario("caiso-csv-sample").with_overrides({"duration_days": 1})
    )
    assert result.report.total_served_requests > 0


# ---------------------------------------------------------------------------
# Determinism (acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_every_preset_runs_one_day_deterministically(name):
    spec = get_scenario(name).with_overrides({"duration_days": 1})
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.summary_dict() == second.summary_dict()
    assert np.array_equal(first.report.served_rps, second.report.served_rps)
    assert np.array_equal(first.report.active_devices, second.report.active_devices)


def test_different_seeds_differ():
    base = tiny_spec(duration_days=10).with_overrides(
        {
            # enough devices and hazard that the two seeds cannot coincide
            "sites.0.devices.count": 50,
            "sites.1.devices.count": 50,
            "sites.0.churn.annual_failure_rate": 20.0,
            "sites.1.churn.annual_failure_rate": 20.0,
        }
    )
    first = run_scenario(base)
    second = run_scenario(base.with_overrides({"seed": 99}))
    # population stochasticity must respond to the seed
    assert not np.array_equal(first.report.active_devices, second.report.active_devices)


# ---------------------------------------------------------------------------
# Error paths name the offending field
# ---------------------------------------------------------------------------


def test_unknown_device_names_field_and_knowns():
    spec = tiny_spec().with_overrides({"sites.0.devices.device": "Fairphone 2"})
    with pytest.raises(ScenarioValidationError, match=r"sites\.0\.devices\.device"):
        ScenarioRunner(spec).run()


def test_unknown_policy_names_field():
    spec = tiny_spec().with_overrides({"routing.policy": "clairvoyant"})
    with pytest.raises(ScenarioValidationError, match="routing.policy"):
        ScenarioRunner(spec).run()


def test_missing_csv_file_names_field():
    spec = tiny_spec().with_overrides(
        {"sites.0.trace.kind": "csv", "sites.0.trace.csv_path": "/does/not/exist.csv"}
    )
    with pytest.raises(ScenarioValidationError, match=r"sites\.0\.trace\.csv_path"):
        ScenarioRunner(spec).build_sites()


def test_unknown_region_is_rejected_at_spec_level():
    with pytest.raises(ScenarioValidationError, match="region"):
        tiny_spec().with_overrides({"sites.0.trace.kind": "regional",
                                    "sites.0.trace.region": "atlantis"})


def test_bundled_csv_resolves_from_bare_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no caiso_sample.csv in cwd
    spec = get_scenario("caiso-csv-sample").with_overrides({"duration_days": 1})
    assert spec.sites[0].trace.csv_path == "caiso_sample.csv"
    result = run_scenario(spec)
    assert result.report.total_served_requests > 0


def test_energy_dollars_track_realised_energy():
    result = run_scenario(tiny_spec())
    report = result.report
    assert report.energy_kwh is not None
    economics = result.spec.economics
    for j, name in enumerate(report.site_names):
        expected = float(report.energy_kwh[:, j].sum()) * economics.electricity_usd_per_kwh
        assert result.site_costs[name].energy_usd == pytest.approx(expected)
    # and the kWh base is consistent with the carbon ledger:
    # operational_g == energy_kwh * intensity, summed per site
    recomputed = (report.energy_kwh * report.intensity_g_per_kwh).sum()
    assert recomputed == pytest.approx(report.operational_g.sum())
