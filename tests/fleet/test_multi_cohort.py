"""Heterogeneous in-site cohorts: equivalence, per-type ledgers, churn.

The acceptance properties of the multi-cohort site model:

* a one-cohort site's cohort series are its site series;
* a true mixed site is equivalent to the two co-located single-cohort
  sites it replaces — identical per-cohort series, aggregate totals equal
  up to float summation order;
* per-device-type battery ledgers conserve energy and respect SoC bounds
  pack by pack;
* per-cohort churn runs on independent seeded streams.
"""

import numpy as np
import pytest

from fleet_oracles import bits, site_rate
from fleet_specs import fleet_spec, junkyard_cohort, pixel_rack_spec, site_spec
from repro.devices.catalog import NEXUS_4, PIXEL_3A
from repro.fleet import (
    CarbonBufferDispatch,
    ChurnTable,
    DeviceCohort,
    DiurnalDemand,
    FleetSimulation,
    FleetSite,
    GreedyLowestIntensityRouting,
    CapacityAwareMarginalCciRouting,
    PackTable,
    ReplacementPolicy,
)
from repro.fleet.sites import regional_trace
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import DeviceMixSpec

N_DAYS = 5
DEMAND = DiurnalDemand(mean_rps=500.0)


def _pixel_cohort(seed=3, n=30):
    return junkyard_cohort(PIXEL_3A, n, seed=seed)


def _nexus_cohort(seed=(3, 1), n=30):
    return junkyard_cohort(NEXUS_4, n, seed=seed, requests_per_device_s=8.0)


def _trace(seed=2024):
    return regional_trace("caiso-like", n_days=N_DAYS, seed=seed)


# ---------------------------------------------------------------------------
# One-cohort sites: the cohort series are the site series
# ---------------------------------------------------------------------------


class TestSingleCohortSite:
    def test_single_cohort_site_series_match_cohort_series(self):
        spec = fleet_spec(
            site_spec("solo", "caiso-like", 40, n_trace_days=N_DAYS), seed=7
        )
        (site,) = ScenarioRunner(spec).build_sites()
        report = FleetSimulation(
            [site], GreedyLowestIntensityRouting(), DEMAND,
            dispatch=CarbonBufferDispatch(),
        ).run(N_DAYS)
        assert report.cohort_labels == ("solo/Pixel 3A",)
        assert np.array_equal(report.cohort_served_rps, report.served_rps)
        assert np.array_equal(report.cohort_battery_kwh, report.battery_kwh)
        assert np.array_equal(report.cohort_soc, report.soc)
        assert np.array_equal(report.cohort_active, report.active_devices)


# ---------------------------------------------------------------------------
# Mixed site == the two co-located single-cohort sites it replaces
# ---------------------------------------------------------------------------


class TestMixedSiteEquivalence:
    @staticmethod
    def _run(sites, policy_cls=CapacityAwareMarginalCciRouting, dispatch=True):
        return FleetSimulation(
            sites, policy_cls(), DEMAND,
            dispatch=CarbonBufferDispatch() if dispatch else None,
        ).run(N_DAYS)

    def _pair(self):
        """The same cohorts as one mixed site and as co-located twins."""
        mixed = self._run([
            FleetSite("mixed", _trace(), (_pixel_cohort(), _nexus_cohort())),
        ])
        split = self._run([
            FleetSite("pixel", _trace(), (_pixel_cohort(),)),
            FleetSite("nexus", _trace(), (_nexus_cohort(),)),
        ])
        return mixed, split

    def test_cohort_series_identical(self):
        """Routing, dispatch, and churn see identical per-type columns."""
        mixed, split = self._pair()
        assert mixed.cohort_labels == ("mixed/Pixel 3A", "mixed/Nexus 4")
        assert split.cohort_labels == ("pixel/Pixel 3A", "nexus/Nexus 4")
        for name in (
            "cohort_served_rps", "cohort_energy_kwh", "cohort_grid_kwh",
            "cohort_battery_kwh", "cohort_charge_kwh", "cohort_soc",
            "cohort_active", "cohort_failures", "cohort_battery_swaps",
            "cohort_deployed", "cohort_replacement_carbon_g",
        ):
            assert np.array_equal(getattr(mixed, name), getattr(split, name)), name
        assert np.array_equal(mixed.dropped_rps, split.dropped_rps)

    def test_aggregate_totals_match(self):
        mixed, split = self._pair()
        assert mixed.total_served_requests == pytest.approx(
            split.total_served_requests, rel=1e-12
        )
        # Peripherals sum across cohorts exactly as across co-located sites,
        # so the wall energy and operational carbon agree too.
        assert mixed.energy_kwh.sum() == pytest.approx(
            split.energy_kwh.sum(), rel=1e-12
        )
        assert mixed.total_operational_carbon_g == pytest.approx(
            split.total_operational_carbon_g, rel=1e-12
        )
        assert mixed.fleet_cci_g_per_request() == pytest.approx(
            split.fleet_cci_g_per_request(), rel=1e-12
        )

    def test_marginal_cci_prefers_efficient_type_inside_the_site(self):
        """Pixel serves more than its capacity share under marginal-CCI."""
        mixed, _ = self._pair()
        served = mixed.cohort_served_rps.sum(axis=0)
        capacity = np.array([30 * 20.0, 30 * 8.0])
        share_served = served / served.sum()
        share_capacity = capacity / capacity.sum()
        assert share_served[0] > share_capacity[0]

    def test_round_robin_splits_by_capacity_share(self):
        from repro.fleet import RoundRobinRouting

        report = self._run(
            [FleetSite("m", _trace(), (_pixel_cohort(), _nexus_cohort()))],
            policy_cls=RoundRobinRouting, dispatch=False,
        )
        served = report.cohort_served_rps.sum(axis=0)
        # Stable populations at low demand: shares track live capacity.
        assert served[0] / served[1] == pytest.approx(20.0 / 8.0, rel=0.05)


# ---------------------------------------------------------------------------
# Per-device-type battery ledgers
# ---------------------------------------------------------------------------


class TestPerTypeLedger:
    @pytest.fixture(scope="class")
    def reports(self):
        def build():
            return [
                FleetSite("mixed", _trace(), (_pixel_cohort(), _nexus_cohort()))
            ]
        return {
            "none": FleetSimulation(
                build(), GreedyLowestIntensityRouting(), DEMAND
            ).run(N_DAYS),
            "dispatch": FleetSimulation(
                build(), GreedyLowestIntensityRouting(), DEMAND,
                dispatch=CarbonBufferDispatch(),
            ).run(N_DAYS),
        }

    def test_two_packs_for_one_mixed_site(self):
        site = FleetSite("mixed", _trace(), (_pixel_cohort(), _nexus_cohort()))
        packs = PackTable.from_sites([site])
        assert len(packs) == 2
        assert packs.entries[0].device.name == "Pixel 3A"
        assert packs.entries[1].device.name == "Nexus 4"

    def test_per_pack_energy_conservation(self, reports):
        """Each cohort's device energy splits into grid + its own battery."""
        baseline = reports["none"]
        dispatched = reports["dispatch"]
        assert np.allclose(
            baseline.cohort_energy_kwh,
            dispatched.cohort_grid_kwh + dispatched.cohort_battery_kwh,
        )

    def test_per_pack_soc_bounds(self, reports):
        soc = reports["dispatch"].cohort_soc
        assert np.all(soc >= CarbonBufferDispatch().min_state_of_charge - 1e-9)
        assert np.all(soc <= 1.0 + 1e-9)

    def test_no_pack_charges_and_discharges_simultaneously(self, reports):
        report = reports["dispatch"]
        assert not np.any(
            (report.cohort_battery_kwh > 0) & (report.cohort_charge_kwh > 0)
        )

    def test_both_device_types_cycle_their_packs(self, reports):
        discharge = reports["dispatch"].cohort_battery_discharge_kwh()
        assert discharge.shape == (2,)
        assert np.all(discharge > 0)

    def test_site_series_aggregate_the_packs(self, reports):
        report = reports["dispatch"]
        assert np.allclose(
            report.battery_kwh[:, 0],
            report.cohort_battery_kwh.sum(axis=1),
        )
        assert np.allclose(
            report.charge_kwh[:, 0],
            report.cohort_charge_kwh.sum(axis=1),
        )
        # Site wall energy = device energy + peripherals - battery + charge.
        assert np.allclose(
            report.energy_kwh, report.grid_kwh + report.charge_kwh
        )

    def test_site_soc_is_capacity_weighted(self, reports):
        report = reports["dispatch"]
        soc = report.soc[:, 0]
        low = report.cohort_soc.min(axis=1)
        high = report.cohort_soc.max(axis=1)
        assert np.all(soc >= low - 1e-12)
        assert np.all(soc <= high + 1e-12)

    def test_dispatch_still_avoids_carbon_on_a_mixed_site(self, reports):
        assert reports["dispatch"].carbon_avoided_g() > 0
        assert (
            reports["dispatch"].total_operational_carbon_g
            <= reports["none"].total_operational_carbon_g
        )


# ---------------------------------------------------------------------------
# Per-cohort churn: determinism and stream independence
# ---------------------------------------------------------------------------


class TestPerCohortChurn:
    def test_mixed_site_churn_is_deterministic(self):
        def run():
            cohorts = (
                DeviceMixSpec(count=25),
                DeviceMixSpec("Nexus 4", 25, requests_per_device_s=8.0),
            )
            spec = fleet_spec(
                site_spec("m", "caiso-like", n_trace_days=N_DAYS, cohorts=cohorts),
                seed=11,
            )
            (site,) = ScenarioRunner(spec).build_sites()
            return FleetSimulation(
                [site], GreedyLowestIntensityRouting(), DEMAND
            ).run(N_DAYS)

        first, second = run(), run()
        assert np.array_equal(first.cohort_active, second.cohort_active)
        assert np.array_equal(first.cohort_failures, second.cohort_failures)
        assert np.array_equal(
            first.cohort_replacement_carbon_g, second.cohort_replacement_carbon_g
        )

    def test_cohort_streams_are_independent(self):
        """Re-seeding cohort B never consumes cohort A's random draws."""
        def a_steps(b_seed):
            table = ChurnTable(
                [
                    DeviceCohort(PIXEL_3A, ReplacementPolicy(target_size=50), seed=5),
                    DeviceCohort(NEXUS_4, ReplacementPolicy(target_size=50), seed=b_seed),
                ]
            )
            steps = [table.step(1.0, [0.5, 0.5]) for _ in range(30)]
            return [(int(s["failures"][0]), int(s["active"][0])) for s in steps]

        assert a_steps(b_seed=1) == a_steps(b_seed=99)


# ---------------------------------------------------------------------------
# Site construction and validation
# ---------------------------------------------------------------------------


class TestMixedSiteConstruction:
    def test_peripherals_sum_across_cohorts(self):
        mixed = FleetSite("m", _trace(), (_pixel_cohort(), _nexus_cohort()))
        pixel = FleetSite("p", _trace(), (_pixel_cohort(),))
        nexus = FleetSite("n", _trace(), (_nexus_cohort(),))
        assert mixed.peripheral_power_w == pytest.approx(
            pixel.peripheral_power_w + nexus.peripheral_power_w
        )

    def test_capacity_aggregates_across_cohorts(self):
        mixed = FleetSite("m", _trace(), (_pixel_cohort(), _nexus_cohort()))
        packs = PackTable.from_sites([mixed])
        counts = ChurnTable(mixed.cohorts).active
        assert (counts * packs.requests_per_device_s).sum() == pytest.approx(
            30 * 20.0 + 30 * 8.0
        )
        assert packs.site_rate.tolist() == pytest.approx([14.0, 14.0])

    def test_marginal_is_the_best_cohort(self):
        mixed = FleetSite("m", _trace(), (_pixel_cohort(), _nexus_cohort()))
        packs = PackTable.from_sites([mixed])
        per_cohort = packs.marginal_g(np.array([[300.0, 300.0]]))[0]
        keys = CapacityAwareMarginalCciRouting().request_keys(
            packs, np.array([[300.0]])
        )
        assert keys.shape == (1, 1)
        assert keys[0, 0] == per_cohort.min()

    def test_site_needs_at_least_one_cohort(self):
        with pytest.raises(ValueError, match="at least one cohort"):
            FleetSite(name="bad", trace=_trace(), cohorts=())


class TestSameDeviceRack:
    """Two Pixel 3A cohorts at one site, serving 20 and 10 req/s each."""

    @pytest.fixture(scope="class")
    def site(self):
        spec = pixel_rack_spec(counts=(30, 15), n_trace_days=N_DAYS, seed=4)
        (site,) = ScenarioRunner(spec).build_sites()
        return site

    def test_two_packs_keep_their_own_rates(self, site):
        packs = PackTable.from_sites([site])
        assert [cohort.device.name for cohort in packs.entries] == ["Pixel 3A"] * 2
        assert packs.requests_per_device_s.tolist() == [20.0, 10.0]
        assert packs.target.tolist() == [30, 15]
        assert site.cohort_labels() == ("rack/Pixel 3A#0", "rack/Pixel 3A#1")

    def test_site_rate_is_the_target_weighted_mean(self, site):
        packs = PackTable.from_sites([site])
        assert bits(packs.site_rate) == bits([site_rate(site)] * 2)
        assert packs.site_rate.tolist() == pytest.approx([(600.0 + 150.0) / 45] * 2)

    def test_audit_passes(self, site):
        simulation = FleetSimulation(
            [site], CapacityAwareMarginalCciRouting(), DEMAND,
            dispatch=CarbonBufferDispatch(), audit=True,
        )
        report = simulation.run(N_DAYS)
        assert simulation.audit_report.ok, simulation.audit_report.render()
        # Both packs served and cycled their batteries.
        assert np.all(report.cohort_served_rps.sum(axis=0) > 0)
        assert np.all(report.cohort_battery_discharge_kwh() > 0)


class TestForecastDispatchOnMixedSites:
    def test_packs_of_one_site_share_one_forecast_stream(self):
        """The forecast is keyed per site: a noisy model must not perturb
        one physical grid two different ways for two co-located packs."""
        from repro.fleet import ForecastDispatch
        from repro.forecast import PerfectForecast

        seen = []

        class Recording(PerfectForecast):
            def windows(self, truth, site_index, start_h, horizon_h):
                seen.extend(site_index.tolist())
                return super().windows(truth, site_index, start_h, horizon_h)

        sites = [
            FleetSite("mixed", _trace(), (_pixel_cohort(), _nexus_cohort())),
            FleetSite("solo", _trace(seed=2030), (_pixel_cohort(seed=9),)),
        ]
        from repro.telemetry import Telemetry

        dispatch = ForecastDispatch(Recording())
        tele = Telemetry()
        FleetSimulation(
            sites,
            GreedyLowestIntensityRouting(),
            DEMAND,
            dispatch=dispatch,
            telemetry=tele,
        ).run(2)
        # Three packs, two sites: windows are requested with the *site*
        # index, so only {0, 1} appear — never a pack index 2.
        assert set(seen) == {0, 1}
        # One window per site per refresh (daily, over two days): the two
        # packs at site 0 share theirs.
        assert seen.count(0) == seen.count(1) == 2
        assert dispatch.forecast_windows == 2 * 2
        assert tele.counters["dispatch.forecast_windows"] == 2 * 2
        # ...while every pack still plans its own window each day.
        assert dispatch.planned_windows == 3 * 2
        assert tele.counters["dispatch.planned_windows"] == 3 * 2
