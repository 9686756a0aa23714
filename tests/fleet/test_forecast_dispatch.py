"""Forecast-aware dispatch: planned setpoints in the fleet loop."""

import numpy as np
import pytest

from fleet_specs import two_site_spec
from repro.fleet import (
    CarbonBufferDispatch,
    DiurnalDemand,
    FleetSimulation,
    ForecastDispatch,
    GreedyLowestIntensityRouting,
    PackTable,
)
from repro import units
from repro.fleet.dispatch import DISPATCH_CHARGE, DISPATCH_DISCHARGE
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S
from repro.forecast import (
    ForecastModel,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
)
from repro.scenarios import ScenarioRunner, get_scenario

N_DEVICES = 20
N_DAYS = 7

DEMAND = DiurnalDemand(mean_rps=0.5 * 2 * N_DEVICES * DEFAULT_REQUESTS_PER_DEVICE_S)


def _run(dispatch, seed: int = 6):
    spec = two_site_spec(N_DEVICES, seed=seed, n_trace_days=7)
    sites = ScenarioRunner(spec).build_sites()
    policy = GreedyLowestIntensityRouting()
    return FleetSimulation(sites, policy, DEMAND, dispatch=dispatch).run(N_DAYS)


@pytest.fixture(scope="module")
def reports():
    return {
        "none": _run(None),
        "heuristic": _run(CarbonBufferDispatch()),
        "perfect": _run(ForecastDispatch(PerfectForecast())),
        "persistence": _run(ForecastDispatch(PersistenceForecast())),
    }


class TestForecastDispatch:
    def test_perfect_forecast_beats_the_heuristic(self, reports):
        assert (
            reports["perfect"].carbon_avoided_g()
            >= reports["heuristic"].carbon_avoided_g()
        )
        assert reports["perfect"].carbon_avoided_g() > 0

    def test_energy_conservation_still_holds(self, reports):
        served_energy = reports["none"].energy_kwh
        for name in ("perfect", "persistence"):
            report = reports[name]
            assert np.allclose(
                served_energy, report.grid_kwh + report.battery_kwh
            )
            assert np.allclose(report.energy_kwh, report.grid_kwh + report.charge_kwh)

    def test_soc_bounds_hold(self, reports):
        for name in ("perfect", "persistence"):
            soc = reports[name].soc
            assert np.all(soc >= 0.25 - 1e-9)
            assert np.all(soc <= 1.0 + 1e-9)

    def test_charge_and_discharge_never_simultaneous(self, reports):
        report = reports["perfect"]
        assert not np.any((report.battery_kwh > 0) & (report.charge_kwh > 0))

    def test_perfect_forecast_acts_from_day_one(self, reports):
        """The oracle needs no history: day 0 already cycles the packs."""
        assert reports["perfect"].battery_kwh[:24].sum() > 0

    def test_persistence_falls_back_on_the_blind_first_day(self, reports):
        """No yesterday => no forecast => the heuristic's day-0 hold."""
        report = reports["persistence"]
        assert np.all(report.battery_kwh[:24] == 0)
        assert np.all(report.charge_kwh[:24] == 0)
        assert np.all(report.soc[:24] == 1.0)

    def test_dispatch_is_deterministic(self):
        first = _run(ForecastDispatch(NoisyOracleForecast(noise_sigma=0.3, seed=2)))
        second = _run(ForecastDispatch(NoisyOracleForecast(noise_sigma=0.3, seed=2)))
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.charge_kwh, second.charge_kwh)
        assert first.fleet_cci_g_per_request() == second.fleet_cci_g_per_request()

    def test_policy_object_is_reusable_across_runs(self):
        """start_run resets the plan state, so one policy can re-run."""
        dispatch = ForecastDispatch(PerfectForecast())
        first = _run(dispatch)
        second = _run(dispatch)
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.soc, second.soc)

    def test_plans_against_the_ledger_sites(self):
        """day_modes plans the table's sites from the SoC it is handed."""
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        packs = PackTable.from_sites(sites)
        dispatch = ForecastDispatch(PerfectForecast())
        intensity = np.full((24, 2), 300.0)
        counts = np.array([N_DEVICES, N_DEVICES])

        def modes_at(soc):
            dispatch.start_run(packs, 24)
            return dispatch.day_modes(
                0, packs, None, intensity, counts, np.full(2, soc)
            )

        full = modes_at(1.0)
        # The flat recorded intensity gives no spread: the plan comes from
        # the forecast of each site's own trace.
        assert np.any(full == DISPATCH_DISCHARGE, axis=0).all()
        # A pack at its floor has no stored energy: it charges more hours
        # and serves fewer than a full one.
        floor = modes_at(0.25)
        for mode, fewer, more in (
            (DISPATCH_DISCHARGE, floor, full),
            (DISPATCH_CHARGE, full, floor),
        ):
            assert np.all((fewer == mode).sum(axis=0) < (more == mode).sum(axis=0))

    def test_refresh_within_the_day(self):
        report = _run(ForecastDispatch(PerfectForecast(), horizon_h=24, refresh_h=6))
        assert report.total_battery_discharge_kwh > 0
        assert np.all(report.soc >= 0.25 - 1e-9)

    def test_long_horizon_runs(self):
        report = _run(ForecastDispatch(PerfectForecast(), horizon_h=48))
        assert report.carbon_avoided_g() > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            ForecastDispatch(PerfectForecast(), horizon_h=0)
        with pytest.raises(ValueError, match="refresh"):
            ForecastDispatch(PerfectForecast(), horizon_h=24, refresh_h=48)
        with pytest.raises(ValueError, match="refresh"):
            ForecastDispatch(PerfectForecast(), refresh_h=0)
        with pytest.raises(ValueError, match="demand fraction"):
            ForecastDispatch(PerfectForecast(), demand_fraction=0.0)
        with pytest.raises(ValueError, match="min state of charge"):
            ForecastDispatch(PerfectForecast(), min_state_of_charge=1.0)


class _CountingForecast(ForecastModel):
    """Wraps a forecast model; counts its ``windows`` calls and rows."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.rows = 0

    def windows(self, truth, site_index, start_h, horizon_h):
        self.calls += 1
        self.rows += len(start_h)
        return self.inner.windows(truth, site_index, start_h, horizon_h)


class TestMultiDayRefreshCadence:
    """Planning cadence follows ``refresh_h`` even when it spans days.

    A 48-hour refresh used to re-plan every simulated day anyway (the plan
    tail beyond midnight was discarded); pending tails now carry across
    day boundaries, so the planner is consulted exactly once per refresh
    window — these tests pin the model's call and window counts: one call
    per refresh, one row per site.
    """

    N_PACKS = 2  # two single-cohort sites

    def _counted_run(self, horizon_h, refresh_h, n_days=4):
        model = _CountingForecast(PerfectForecast())
        dispatch = ForecastDispatch(
            model, horizon_h=horizon_h, refresh_h=refresh_h
        )
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        report = FleetSimulation(
            sites, GreedyLowestIntensityRouting(), DEMAND, dispatch=dispatch
        ).run(n_days)
        return model, report

    def test_daily_refresh_plans_once_per_day(self):
        model, _ = self._counted_run(horizon_h=24, refresh_h=24)
        assert model.calls == 4
        assert model.rows == 4 * self.N_PACKS

    def test_intra_day_refresh_plans_per_window(self):
        model, _ = self._counted_run(horizon_h=24, refresh_h=6)
        assert model.calls == 4 * (24 // 6)
        assert model.rows == 4 * (24 // 6) * self.N_PACKS

    def test_multi_day_refresh_plans_once_per_window(self):
        """refresh_h=48 over 4 days: days 0 and 2 plan, days 1 and 3 replay."""
        model, report = self._counted_run(horizon_h=48, refresh_h=48)
        assert model.calls == 2
        assert model.rows == 2 * self.N_PACKS
        assert report.total_battery_discharge_kwh > 0
        assert np.all(report.soc >= 0.25 - 1e-9)
        assert np.all(report.soc <= 1.0 + 1e-9)

    def test_multi_day_refresh_is_deterministic(self):
        _, first = self._counted_run(horizon_h=48, refresh_h=48)
        _, second = self._counted_run(horizon_h=48, refresh_h=48)
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.soc, second.soc)

    def test_sub_day_refresh_matches_daily_replans(self):
        """A refresh dividing 24h never stores a pending tail, so the
        carried-tail rework must leave its series untouched relative to a
        fresh policy object run twice (start_run resets the state)."""
        dispatch = ForecastDispatch(PerfectForecast(), horizon_h=24, refresh_h=24)
        first = _run(dispatch)
        second = _run(ForecastDispatch(PerfectForecast()))
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.charge_kwh, second.charge_kwh)


class _RecordingForecast(_CountingForecast):
    """Also records each window's ``(site_index, start hour)``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = []

    def windows(self, truth, site_index, start_h, horizon_h):
        self.asked.extend(zip(site_index.tolist(), start_h.tolist()))
        return super().windows(truth, site_index, start_h, horizon_h)


class TestRefilledPack:
    def test_a_pack_that_empties_drops_its_plan_tail(self):
        """Pack 0 holds 150, 0, 0 and 150 devices on days 0-3.  Day 0's
        30-hour plan leaves a 6-hour tail; the empty days drop it, so the
        refilled pack plans afresh from hour 72 instead of replaying the
        stale tail and asking for hour 78."""
        sites = ScenarioRunner(get_scenario("forecast-buffer")).build_sites()
        packs = PackTable.from_sites(sites)
        model = _RecordingForecast(PerfectForecast())
        dispatch = ForecastDispatch(model, horizon_h=48, refresh_h=30)
        dispatch.start_run(packs, 4 * 24)
        hours = np.arange(24) * units.SECONDS_PER_HOUR
        for day, count in enumerate((150, 0, 0, 150)):
            times = day * units.SECONDS_PER_DAY + hours
            intensity = np.stack(
                [site.trace.intensities_at(times, wrap=True) for site in sites],
                axis=1,
            )[:, packs.site_index]
            counts = np.array([150] * len(packs))
            counts[0] = count
            model.asked.clear()
            dispatch.day_modes(
                day, packs, None, intensity, counts, np.ones(len(packs))
            )
        assert (0, 72) in model.asked
        assert (0, 78) not in model.asked


class _BlindOnDay(ForecastModel):
    """The oracle, except that every window starting on ``blind_day`` is blind."""

    def __init__(self, blind_day):
        self.blind_day = blind_day
        self.inner = PerfectForecast()

    def windows(self, truth, site_index, start_h, horizon_h):
        forecast, seeing = self.inner.windows(truth, site_index, start_h, horizon_h)
        return forecast, seeing & (start_h // 24 != self.blind_day)


class TestBlindDays:
    def test_a_blind_day_after_the_first_holds_every_pack(self):
        dispatch = ForecastDispatch(_BlindOnDay(1))
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        report = FleetSimulation(
            sites, GreedyLowestIntensityRouting(), DEMAND, dispatch=dispatch
        ).run(3)
        blind = slice(24, 48)
        assert np.all(report.cohort_battery_kwh[blind] == 0)
        assert np.all(report.cohort_charge_kwh[blind] == 0)
        assert np.all(report.cohort_soc[blind] == report.cohort_soc[23])
        assert report.cohort_battery_kwh[:24].sum() > 0
        assert report.cohort_battery_kwh[48:].sum() > 0
        assert dispatch.fallback_pack_days == 2  # two packs, one blind day
        assert dispatch.planned_windows == 4  # two packs, two seeing days

    def test_a_window_blind_mid_day_keeps_the_planned_prefix(self):
        """Six-hour refreshes with every window from hour 36 on blind: day
        1 plans 24:00-36:00 and holds the rest, and no whole day is blind."""
        dispatch = ForecastDispatch(
            _BlindFrom(36 * units.SECONDS_PER_HOUR), horizon_h=24, refresh_h=6
        )
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        report = FleetSimulation(
            sites, GreedyLowestIntensityRouting(), DEMAND, dispatch=dispatch
        ).run(2)
        assert np.all(report.cohort_battery_kwh[36:] == 0)
        assert np.all(report.cohort_charge_kwh[36:] == 0)
        assert dispatch.fallback_pack_days == 0
        assert dispatch.planned_windows == 2 * (4 + 2)  # two packs
        # A chunk that ends before midnight seeds the next refresh: three on
        # day 0, and on day 1 the two that precede the blind window.
        assert dispatch.projected_windows == 2 * (3 + 2)


class _BlindFrom(ForecastModel):
    """The oracle, except that every window starting at ``blind_s`` or later is blind."""

    def __init__(self, blind_s):
        self.blind_s = blind_s
        self.inner = PerfectForecast()

    def windows(self, truth, site_index, start_h, horizon_h):
        forecast, seeing = self.inner.windows(truth, site_index, start_h, horizon_h)
        return forecast, seeing & (start_h * units.SECONDS_PER_HOUR < self.blind_s)


class TestRegretAccounting:
    def test_regret_defaults_to_zero_without_accounting(self, reports):
        report = reports["perfect"]
        assert not report.has_regret_accounting
        assert report.forecast_regret_g() == 0.0

    def test_regret_is_hindsight_minus_realised_clamped(self, reports):
        import dataclasses

        realised = reports["persistence"].carbon_avoided_g()
        hindsight = reports["perfect"].carbon_avoided_g()
        report = dataclasses.replace(
            reports["persistence"], hindsight_avoided_g=hindsight
        )
        assert report.has_regret_accounting
        assert report.forecast_regret_g() == pytest.approx(
            max(0.0, hindsight - realised)
        )
        assert report.forecast_regret_g() >= 0
        lucky = dataclasses.replace(
            reports["perfect"], hindsight_avoided_g=hindsight - 1.0
        )
        assert lucky.forecast_regret_g() == 0.0

    def test_summary_reports_regret_when_accounted(self, reports):
        import dataclasses

        report = dataclasses.replace(
            reports["persistence"],
            hindsight_avoided_g=reports["perfect"].carbon_avoided_g(),
        )
        summary = report.summary_dict()
        assert "forecast_regret_kg" in summary
        assert "hindsight_avoided_kg" in summary
        assert "forecast_regret_kg" not in reports["perfect"].summary_dict()
