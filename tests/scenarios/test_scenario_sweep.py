"""Cartesian scenario sweeps: grid expansion, parsing, and tabulation."""

import numpy as np
import pytest

from repro.scenarios import (
    ScenarioValidationError,
    parse_sweep_override,
    spec_hash,
    sweep_scenario,
)
from repro.scenarios.spec import (
    DemandSpec,
    DeviceMixSpec,
    RoutingSpec,
    ScenarioSpec,
    SiteSpec,
    TraceSpec,
)


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="sweep-tiny",
        sites=(
            SiteSpec(
                name="dirty",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=600.0, n_days=2),
                devices=DeviceMixSpec(count=5),
            ),
            SiteSpec(
                name="clean",
                trace=TraceSpec(kind="constant", intensity_g_per_kwh=30.0, n_days=2),
                devices=DeviceMixSpec(count=5),
            ),
        ),
        routing=RoutingSpec(policy="round-robin", latency_probe_s=0.0),
        demand=DemandSpec(fraction_of_capacity=0.4),
        duration_days=1,
    )


class TestSweepScenario:
    def test_cartesian_grid_is_fully_expanded(self):
        sweep = sweep_scenario(
            tiny_spec(),
            {
                "routing.policy": ["round-robin", "greedy-lowest-intensity"],
                "demand.fraction_of_capacity": [0.3, 0.6],
            },
        )
        assert len(sweep.cells) == 4
        assert sweep.axis_names == ("routing.policy", "demand.fraction_of_capacity")
        combos = {cell.overrides for cell in sweep.cells}
        assert len(combos) == 4
        for cell in sweep.cells:
            overrides = dict(cell.overrides)
            assert cell.result.spec.routing.policy == overrides["routing.policy"]
            assert cell.result.spec.demand.fraction_of_capacity == pytest.approx(
                overrides["demand.fraction_of_capacity"]
            )

    def test_greedy_wins_the_grid_on_asymmetric_sites(self):
        sweep = sweep_scenario(
            tiny_spec(),
            {"routing.policy": ["round-robin", "greedy-lowest-intensity"]},
        )
        best = sweep.best_cell()
        assert dict(best.overrides)["routing.policy"] == "greedy-lowest-intensity"

    def test_table_has_one_row_per_cell(self):
        sweep = sweep_scenario(
            tiny_spec(), {"duration_days": [1, 2]}
        )
        headers, rows = sweep.table()
        assert headers[0] == "duration_days"
        assert "CCI (g/req)" in headers
        assert len(rows) == 2
        assert rows[0][0] == "1" and rows[1][0] == "2"

    def test_sweep_is_deterministic(self):
        axes = {"routing.policy": ["round-robin", "greedy-lowest-intensity"]}
        first = sweep_scenario(tiny_spec(), axes)
        second = sweep_scenario(tiny_spec(), axes)
        for a, b in zip(first.cells, second.cells):
            assert a.cci_g_per_request == b.cci_g_per_request
            assert np.array_equal(
                a.result.report.served_rps, b.result.report.served_rps
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ScenarioValidationError, match="at least one"):
            sweep_scenario(tiny_spec(), {})
        with pytest.raises(ScenarioValidationError, match="at least one value"):
            sweep_scenario(tiny_spec(), {"duration_days": []})

    def test_bad_path_fails_fast(self):
        with pytest.raises(ScenarioValidationError, match="duration_dayz"):
            sweep_scenario(tiny_spec(), {"duration_dayz": [1, 2]})

    def test_bad_policy_anywhere_in_grid_fails_before_any_run(self):
        """A typo in the *last* axis value must not waste the earlier cells."""
        with pytest.raises(ScenarioValidationError, match="routing.policy"):
            sweep_scenario(
                tiny_spec(),
                {"routing.policy": ["round-robin", "clairvoyant"]},
            )


class TestParallelSweep:
    AXES = {
        "routing.policy": ["round-robin", "greedy-lowest-intensity"],
        "demand.fraction_of_capacity": [0.3, 0.6],
    }

    def test_parallel_results_are_bitwise_identical_to_serial(self):
        serial = sweep_scenario(tiny_spec(), self.AXES)
        parallel = sweep_scenario(tiny_spec(), self.AXES, jobs=2)
        assert parallel.axes == serial.axes
        for ours, theirs in zip(parallel.cells, serial.cells):
            assert ours.overrides == theirs.overrides
            assert ours.result.spec == theirs.result.spec
            assert ours.cci_g_per_request == theirs.cci_g_per_request
            assert np.array_equal(
                ours.result.report.served_rps, theirs.result.report.served_rps
            )
            assert np.array_equal(
                ours.result.report.operational_g, theirs.result.report.operational_g
            )

    def test_jobs_one_is_the_serial_path(self):
        serial = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]})
        one_job = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=1)
        for ours, theirs in zip(one_job.cells, serial.cells):
            assert ours.cci_g_per_request == theirs.cci_g_per_request

    def test_more_jobs_than_cells_is_fine(self):
        sweep = sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=8)
        assert len(sweep.cells) == 2

    def test_duplicate_cells_share_one_simulation(self):
        """Axis values that collapse to the same spec hash equal results."""
        sweep = sweep_scenario(
            tiny_spec(), {"duration_days": [1, 1, 2]}, jobs=2
        )
        assert len(sweep.cells) == 3
        assert spec_hash(sweep.cells[0].result.spec) == spec_hash(
            sweep.cells[1].result.spec
        )
        assert (
            sweep.cells[0].cci_g_per_request == sweep.cells[1].cci_g_per_request
        )

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ScenarioValidationError, match="jobs"):
            sweep_scenario(tiny_spec(), {"duration_days": [1, 2]}, jobs=0)

    def test_spec_hash_is_content_addressed(self):
        assert spec_hash(tiny_spec()) == spec_hash(tiny_spec())
        changed = tiny_spec().with_overrides({"duration_days": 2})
        assert spec_hash(changed) != spec_hash(tiny_spec())


class TestParseSweepOverride:
    def test_comma_separated_values(self):
        key, values = parse_sweep_override("routing.policy=round-robin,marginal-cci")
        assert key == "routing.policy"
        assert values == ["round-robin", "marginal-cci"]

    def test_numeric_values_decode(self):
        key, values = parse_sweep_override("demand.fraction_of_capacity=0.3,0.6")
        assert key == "demand.fraction_of_capacity"
        assert values == [0.3, 0.6]

    def test_single_value_is_one_element_axis(self):
        assert parse_sweep_override("duration_days=2") == ("duration_days", [2])

    def test_json_list_form(self):
        assert parse_sweep_override("duration_days=[1,2,3]") == (
            "duration_days",
            [1, 2, 3],
        )

    def test_quoted_string_keeps_its_commas(self):
        assert parse_sweep_override('sites.0.name="austin,tx"') == (
            "sites.0.name",
            ["austin,tx"],
        )

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioValidationError, match="dotted.path"):
            parse_sweep_override("routing.policy")


class TestForecastSweeps:
    """Forecast cells price regret by replaying their own run's dispatch."""

    @staticmethod
    def _forecast_spec():
        from repro.scenarios import get_scenario

        return get_scenario("forecast-buffer").with_overrides(
            {
                "duration_days": 2,
                "sites.0.devices.count": 10,
                "sites.1.devices.count": 10,
                "routing.latency_probe_s": 0,
                "forecast.model": "noisy",
                "forecast.noise_sigma": 0.3,
            }
        )

    @staticmethod
    def _count_fleet_runs(monkeypatch):
        from repro.fleet.scheduler import FleetSimulation

        counts = {"n": 0}
        original = FleetSimulation.run

        def counted(self, n_days):
            counts["n"] += 1
            return original(self, n_days)

        monkeypatch.setattr(FleetSimulation, "run", counted)
        return counts

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_forecast_cells_match_standalone_runs(self, jobs):
        from repro.scenarios import run_scenario

        sweep = sweep_scenario(
            self._forecast_spec(), {"forecast.noise_sigma": [0.3, 0.6]}, jobs=jobs
        )
        for cell in sweep.cells:
            alone = run_scenario(cell.result.spec)
            assert cell.result.summary_dict() == alone.summary_dict()
            assert (
                cell.result.report.hindsight_avoided_g
                == alone.report.hindsight_avoided_g
            )
            assert np.array_equal(
                cell.result.report.battery_kwh, alone.report.battery_kwh
            )

    def test_each_forecast_cell_simulates_one_fleet(self, monkeypatch):
        counts = self._count_fleet_runs(monkeypatch)
        sweep = sweep_scenario(
            self._forecast_spec(), {"forecast.noise_sigma": [0.3, 0.6]}
        )
        assert counts["n"] == 2  # the baseline is a replay, not a twin run
        assert all(cell.result.report.has_regret_accounting for cell in sweep.cells)

    def test_noisy_baseline_equals_the_perfect_cell(self, monkeypatch):
        counts = self._count_fleet_runs(monkeypatch)
        sweep = sweep_scenario(
            self._forecast_spec(), {"forecast.model": ["perfect", "noisy"]}
        )
        assert counts["n"] == 2
        perfect, noisy = sweep.cells
        assert (
            noisy.result.report.hindsight_avoided_g
            == perfect.result.report.carbon_avoided_g()
        )
