"""Energy-dispatch core: ledger physics, conservation, and determinism."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fleet_oracles as oracle
from fleet_specs import (
    fleet_spec,
    junkyard_cohort,
    site_spec,
    two_site_spec,
    worn_churn,
)
from repro.charging import charge_percentile
from repro.fleet import (
    CarbonBufferDispatch,
    ChurnTable,
    DiurnalDemand,
    EnergyLedger,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    PackTable,
    RoundRobinRouting,
)
from repro.fleet.dispatch import (
    DISPATCH_CHARGE,
    DISPATCH_DISCHARGE,
    DISPATCH_HOLD,
)
from repro.fleet.scheduler import _effective_capacity
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S, FleetSite, regional_trace
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import ChurnSpec, DeviceMixSpec

N_DEVICES = 20
N_DAYS = 7

DEMAND = DiurnalDemand(mean_rps=0.7 * N_DEVICES * DEFAULT_REQUESTS_PER_DEVICE_S)


def _run(dispatch, seed: int = 6, policy=None):
    spec = two_site_spec(N_DEVICES, seed=seed, n_trace_days=7)
    sites = ScenarioRunner(spec).build_sites()
    policy = policy or GreedyLowestIntensityRouting()
    return FleetSimulation(sites, policy, DEMAND, dispatch=dispatch).run(N_DAYS)


@pytest.fixture(scope="module")
def reports():
    """The same fleet with and without the battery ledger in the loop."""
    return {
        "none": _run(None),
        "dispatch": _run(CarbonBufferDispatch()),
    }


# ---------------------------------------------------------------------------
# Energy conservation and SoC bounds (acceptance criteria)
# ---------------------------------------------------------------------------


class TestConservation:
    def test_served_energy_is_grid_plus_battery(self, reports):
        """Per site and hour: energy served == grid serving + battery discharge.

        The undispatched run integrates exactly the energy the sites need
        (same seeds => identical allocation and churn), so it is the
        independent ground truth for the dispatched run's split.
        """
        served_energy = reports["none"].energy_kwh
        dispatched = reports["dispatch"]
        assert np.allclose(
            served_energy, dispatched.grid_kwh + dispatched.battery_kwh
        )

    def test_wall_energy_is_grid_plus_charge(self, reports):
        report = reports["dispatch"]
        assert np.allclose(report.energy_kwh, report.grid_kwh + report.charge_kwh)

    def test_operational_carbon_follows_wall_energy(self, reports):
        report = reports["dispatch"]
        assert np.allclose(
            report.operational_g, report.energy_kwh * report.intensity_g_per_kwh
        )

    def test_soc_stays_within_floor_and_full(self, reports):
        soc = reports["dispatch"].soc
        assert np.all(soc >= CarbonBufferDispatch().min_state_of_charge - 1e-9)
        assert np.all(soc <= 1.0 + 1e-9)

    def test_charge_and_discharge_never_simultaneous(self, reports):
        report = reports["dispatch"]
        assert not np.any((report.battery_kwh > 0) & (report.charge_kwh > 0))

    def test_soc_change_matches_throughput(self, reports):
        """Integrated charge minus discharge equals the SoC trajectory."""
        report = reports["dispatch"]
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        # Device counts were stable in this short run (availability 1.0), so
        # a constant capacity reconstruction is exact.
        assert np.all(report.active_devices == N_DEVICES)
        capacity_j = N_DEVICES * PackTable.from_sites(sites).battery_j
        for j in range(len(sites)):
            capacity_kwh = capacity_j[j] / 3.6e6
            delta = (
                report.charge_kwh[:, j] - report.battery_kwh[:, j]
            ).cumsum() / capacity_kwh
            assert np.allclose(report.soc[:, j], 1.0 + delta)


# ---------------------------------------------------------------------------
# Dispatch pays off and stays deterministic
# ---------------------------------------------------------------------------


class TestCarbonBuffer:
    def test_dispatch_cycles_the_batteries(self, reports):
        report = reports["dispatch"]
        assert report.total_battery_discharge_kwh > 0
        assert report.total_charge_kwh > 0

    def test_dispatch_never_increases_operational_carbon(self, reports):
        assert (
            reports["dispatch"].total_operational_carbon_g
            <= reports["none"].total_operational_carbon_g
        )

    def test_avoided_carbon_matches_the_ledgers(self, reports):
        avoided = reports["dispatch"].carbon_avoided_g()
        assert avoided > 0
        assert avoided == pytest.approx(
            reports["none"].total_operational_carbon_g
            - reports["dispatch"].total_operational_carbon_g
        )

    def test_realised_savings_per_site_are_positive(self, reports):
        savings = reports["dispatch"].realised_charging_savings()
        assert set(savings) == {"texas", "cascadia"}
        assert all(value > 0 for value in savings.values())

    def test_dispatch_is_deterministic(self):
        first = _run(CarbonBufferDispatch(), seed=9)
        second = _run(CarbonBufferDispatch(), seed=9)
        assert np.array_equal(first.battery_kwh, second.battery_kwh)
        assert np.array_equal(first.charge_kwh, second.charge_kwh)
        assert np.array_equal(first.soc, second.soc)
        assert first.fleet_cci_g_per_request() == second.fleet_cci_g_per_request()

    def test_first_day_is_hold(self, reports):
        """No previous-day trace => no thresholds => ledger untouched."""
        report = reports["dispatch"]
        assert np.all(report.battery_kwh[:24] == 0)
        assert np.all(report.charge_kwh[:24] == 0)
        assert np.all(report.soc[:24] == 1.0)

    def test_undispatched_report_has_degenerate_series(self, reports):
        report = reports["none"]
        assert np.allclose(report.grid_kwh, report.energy_kwh)
        assert np.all(report.battery_kwh == 0)
        assert np.all(report.charge_kwh == 0)
        assert np.all(report.soc == 1.0)
        assert report.realised_charging_savings() == {
            "texas": 0.0,
            "cascadia": 0.0,
        }


# ---------------------------------------------------------------------------
# Ledger unit physics
# ---------------------------------------------------------------------------


class TestEnergyLedger:
    @pytest.fixture()
    def site(self):
        return ScenarioRunner(two_site_spec(5, seed=1, n_trace_days=2)).build_sites()[0]

    @staticmethod
    def _ledger(site, soc=1.0, **kwargs):
        """A one-pack ledger at state of charge ``soc`` and its
        ``(capacity_j, charge_rate_w)`` at the site's live count."""
        packs = PackTable.from_sites([site])
        counts = ChurnTable(site.cohorts).active
        ledger = EnergyLedger(packs, **kwargs)
        ledger.soc[:] = soc
        return ledger, counts * packs.battery_j, counts * packs.charge_w

    def test_capabilities_follow_the_given_counts(self, site):
        packs = PackTable.from_sites([site])
        (entry,) = site.cohorts
        battery = entry.device.battery
        assert (np.array([3]) * packs.battery_j)[0] == 3 * battery.capacity_joules
        assert (np.array([3]) * packs.charge_w)[0] == 3 * battery.charge_rate_w
        assert (np.array([0]) * packs.battery_j)[0] == 0.0
        assert (np.array([0]) * packs.charge_w)[0] == 0.0

    def test_discharge_stops_at_the_floor(self, site):
        ledger, capacity_j, rate_w = self._ledger(site, min_state_of_charge=0.25)
        huge = np.array([10.0 * capacity_j[0]])
        (battery_j,), (charge_j,), _ = ledger.step_block(
            np.array([[DISPATCH_DISCHARGE]]), huge, 3600.0, capacity_j, rate_w,
            np.array([1.0]),
        )
        assert charge_j[0] == 0.0
        assert battery_j[0] == pytest.approx(0.75 * capacity_j[0])
        assert ledger.soc[0] == pytest.approx(0.25)

    def test_forced_charge_below_the_floor(self, site):
        ledger, capacity_j, rate_w = self._ledger(site, min_state_of_charge=0.25)
        ledger.soc[:] = 0.10  # knocked below the floor (e.g. capacity shift)
        (battery_j,), (charge_j,), _ = ledger.step_block(
            np.array([[DISPATCH_DISCHARGE]]), np.array([1.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert battery_j[0] == 0.0
        assert charge_j[0] > 0.0
        assert ledger.soc[0] > 0.10

    def test_charge_stops_at_full(self, site):
        ledger, capacity_j, rate_w = self._ledger(site)
        (battery_j,), (charge_j,), _ = ledger.step_block(
            np.array([[DISPATCH_CHARGE]]), np.array([0.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert charge_j[0] == 0.0
        assert ledger.soc[0] == 1.0

    def test_charge_is_limited_by_idle_headroom(self, site):
        # A step short enough that the (idle-scaled) charge rate binds
        # rather than the pack's remaining headroom.
        step_s = 600.0
        ledger, capacity_j, rate_w = self._ledger(site, soc=0.5)
        assert rate_w[0] * step_s < 0.5 * capacity_j[0]
        _, (busy,), _ = ledger.step_block(
            np.array([[DISPATCH_CHARGE]]), np.array([0.0]), step_s,
            capacity_j, rate_w, np.array([0.25]),
        )
        ledger.soc[:] = 0.5
        _, (idle,), _ = ledger.step_block(
            np.array([[DISPATCH_CHARGE]]), np.array([0.0]), step_s,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert idle[0] == pytest.approx(rate_w[0] * step_s)
        assert busy[0] == pytest.approx(idle[0] * 0.25)

    def test_hold_leaves_the_ledger_untouched(self, site):
        ledger, capacity_j, rate_w = self._ledger(site, soc=0.6)
        (battery_j,), (charge_j,), _ = ledger.step_block(
            np.array([[DISPATCH_HOLD]]), np.array([5.0]), 3600.0,
            capacity_j, rate_w, np.array([1.0]),
        )
        assert battery_j[0] == 0.0 and charge_j[0] == 0.0
        assert ledger.soc[0] == pytest.approx(0.6)

    def test_validation(self, site):
        packs = PackTable.from_sites([site])
        with pytest.raises(ValueError):
            EnergyLedger(packs, min_state_of_charge=1.5)
        assert EnergyLedger(packs).soc.tolist() == [1.0]
        with pytest.raises(ValueError):
            CarbonBufferDispatch(min_state_of_charge=-0.1)


# ---------------------------------------------------------------------------
# The pack table: every count-dependent capability as one array product
# ---------------------------------------------------------------------------


class TestPackTable:
    #: Empty, single, small and beyond-int32 counts.
    COUNTS = (0, 1, 7, 2**40)

    @pytest.fixture(scope="class")
    def sites(self):
        mixed = site_spec(
            "mixed",
            "caiso-like",
            n_trace_days=1,
            cohorts=(
                DeviceMixSpec("Pixel 3A", 20),
                DeviceMixSpec("Nexus 4", 12, requests_per_device_s=8.0),
                DeviceMixSpec("HP ProLiant DL380 G6", 4, requests_per_device_s=200.0),
            ),
        )
        solo = site_spec("solo", "hydro-heavy", 15, n_trace_days=1)
        no_swap = site_spec(
            "no-swap",
            "ercot-like",
            n_trace_days=1,
            cohorts=(DeviceMixSpec("Nexus 5", 9, requests_per_device_s=9.35),),
            churn=ChurnSpec(swap_batteries=False),
        )
        return ScenarioRunner(fleet_spec(mixed, solo, no_swap)).build_sites()

    def test_columns_follow_the_site_cohorts(self, sites):
        packs = PackTable.from_sites(sites)
        assert packs.sites == tuple(sites)
        assert packs.entries == tuple(e for site in sites for e in site.cohorts)
        assert len(packs) == 5
        assert packs.site_index.tolist() == [0, 0, 0, 1, 2]
        assert packs.site_starts.tolist() == [0, 3, 4]
        assert packs.target.tolist() == [20, 12, 4, 15, 9]
        assert packs.has_battery.tolist() == [True, True, False, True, True]
        assert packs.battery_j[2] == 0.0 and packs.charge_w[2] == 0.0
        assert np.isnan(packs.charge_percentile[2])

    def test_constants_equal_the_scalar_oracles_bitwise(self, sites):
        packs = PackTable.from_sites(sites)
        for j, entry in enumerate(packs.entries):
            site = packs.sites[packs.site_index[j]]
            power = entry.device.power_model
            assert packs.idle_w[j] == power.idle_power_w
            assert packs.dynamic_j[j].hex() == (
                oracle.dynamic_energy_per_request_j(entry).hex()
            )
            assert packs.wear_g[j].hex() == (
                float(oracle.battery_wear_g_per_request(entry)).hex()
            )
            assert packs.site_rate[j].hex() == float(oracle.site_rate(site)).hex()
            battery = entry.device.battery
            if battery is not None:
                draw = entry.device.average_power_w(entry.load_profile)
                assert packs.charge_percentile[j] == charge_percentile(battery, draw)
        # The battery-less server and the no-swap cohort carry no wear.
        assert packs.wear_g[2] == 0.0 and packs.wear_g[4] == 0.0
        assert packs.wear_g[0] > 0.0 and packs.dynamic_j[4] > 0.0
        # A mixed site's rate is its target-weighted mean.
        assert packs.site_rate[0] == pytest.approx(
            (20 * 20.0 + 12 * 8.0 + 4 * 200.0) / 36
        )

    @pytest.mark.parametrize("include_wear", [True, False])
    def test_marginal_equals_the_scalar_oracle_bitwise(self, sites, include_wear):
        packs = PackTable.from_sites(sites)
        rng = np.random.default_rng(5)
        intensity = rng.uniform(0.0, 900.0, size=(6, len(packs)))
        marginal = packs.marginal_g(intensity, include_wear)
        assert marginal.shape == intensity.shape
        for (hour, j), value in np.ndenumerate(intensity):
            want = oracle.cohort_marginal_g(packs.entries[j], value, include_wear)
            assert marginal[hour, j].hex() == float(want).hex()

    @pytest.mark.parametrize("count", COUNTS)
    def test_products_equal_the_scalar_expressions_bitwise(self, sites, count):
        packs = PackTable.from_sites(sites)
        entries = [entry for site in sites for entry in site.cohorts]
        counts = np.full(len(entries), count, dtype=np.int64)
        served = 0.5 * (counts * packs.requests_per_device_s)
        table = {
            "capacity_rps": counts * packs.requests_per_device_s,
            "device_power_w": counts * packs.idle_w + served * packs.dynamic_j,
            "battery_j": counts * packs.battery_j,
            "charge_w": counts * packs.charge_w,
        }
        for j, entry in enumerate(entries):
            battery = entry.device.battery
            scalar_served = 0.5 * (count * entry.requests_per_device_s)
            scalar = {
                "capacity_rps": count * entry.requests_per_device_s,
                "device_power_w": count * entry.device.power_model.idle_power_w
                + scalar_served * oracle.dynamic_energy_per_request_j(entry),
                "battery_j": 0.0 if battery is None else count * battery.capacity_joules,
                "charge_w": 0.0 if battery is None else count * battery.charge_rate_w,
            }
            for name, value in scalar.items():
                assert table[name][j].hex() == float(value).hex(), (name, j)


    def test_dispatch_is_one_hook_over_the_table(self):
        import inspect

        from repro.fleet import DispatchPolicy

        assert DispatchPolicy.__abstractmethods__ == frozenset({"day_modes"})
        params = list(inspect.signature(DispatchPolicy.day_modes).parameters)
        assert params[1:3] == ["day", "packs"]

    def test_a_run_builds_one_table(self, monkeypatch):
        """The main run and its hindsight replay share the simulation's table."""
        from repro.scenarios import ScenarioRunner, get_scenario

        built = []
        original = PackTable.from_sites.__func__

        def counting(cls, sites):
            built.append(len(sites))
            return original(cls, sites)

        monkeypatch.setattr(PackTable, "from_sites", classmethod(counting))
        spec = get_scenario("forecast-buffer").with_overrides(
            {"duration_days": 2, "routing.latency_probe_s": 0.0}
        )
        result = ScenarioRunner(spec).run()
        assert result.report.hindsight_avoided_g is not None
        assert built == [2]


# ---------------------------------------------------------------------------
# step_block against an independent per-pack, per-hour reference
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pack_site(has_battery: bool):
    """A one-pack site whose device has (or lacks) a battery."""
    from repro.devices.catalog import PIXEL_3A

    device = PIXEL_3A if has_battery else PIXEL_3A.with_overrides(battery=None)
    # No catalog name (so no spec) describes a battery-less Pixel: build the
    # site straight from its cohort.
    return FleetSite(
        "pack" if has_battery else "no-battery",
        regional_trace("caiso-like", n_days=1),
        (junkyard_cohort(device, 4),),
    )


def _reference_step_block(
    soc0, has_battery, min_soc, modes, device_j, step_s, capacity_j,
    charge_rate_w, idle_fraction,
):
    """Plain-Python ledger physics, one pack and one hour at a time."""
    n_rows, n_packs = modes.shape
    battery_j = np.zeros((n_rows, n_packs))
    charge_j = np.zeros((n_rows, n_packs))
    soc = np.zeros((n_rows, n_packs))
    for pack in range(n_packs):
        state = float(soc0[pack])
        for row in range(n_rows):
            capacity = float(capacity_j[row, pack])
            usable = has_battery[pack] and capacity > 0
            mode = int(modes[row, pack])
            if usable and state < min_soc:
                mode = DISPATCH_CHARGE  # forced recharge below the floor
            drawn = 0.0
            if usable and mode == DISPATCH_DISCHARGE:
                available = max(state - min_soc, 0.0) * capacity
                drawn = min(float(device_j[row, pack]), available)
            stored = 0.0
            if usable and mode == DISPATCH_CHARGE:
                idle = min(max(float(idle_fraction[row, pack]), 0.0), 1.0)
                deliverable = float(charge_rate_w[row, pack]) * idle * step_s
                stored = min(max(1.0 - state, 0.0) * capacity, deliverable)
            delta = (stored - drawn) / capacity if capacity > 0 else 0.0
            state = min(max(state + delta, 0.0), 1.0)
            battery_j[row, pack] = drawn
            charge_j[row, pack] = stored
            soc[row, pack] = state
    return battery_j, charge_j, soc


@st.composite
def _ledger_blocks(draw):
    n_packs = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 30))
    min_soc = draw(st.sampled_from([0.0, 0.25, 0.5]))

    def matrix(elements):
        return np.array(
            draw(st.lists(elements, min_size=n_rows * n_packs,
                          max_size=n_rows * n_packs)),
            dtype=float,
        ).reshape(n_rows, n_packs)

    return {
        "has_battery": draw(st.lists(st.booleans(), min_size=n_packs,
                                     max_size=n_packs)),
        "min_soc": min_soc,
        # At, below and above the floor, plus both ends of the range.
        "soc0": np.array(draw(st.lists(
            st.one_of(st.sampled_from([0.0, min_soc, 1.0]), st.floats(0.0, 1.0)),
            min_size=n_packs, max_size=n_packs,
        ))),
        "modes": matrix(st.sampled_from(
            [DISPATCH_DISCHARGE, DISPATCH_HOLD, DISPATCH_CHARGE]
        )).astype(np.int8),
        # Large draws cut discharge short at the floor.
        "device_j": matrix(st.floats(0.0, 4e5)),
        # Zero-capacity packs, and capacity that changes between rows.
        "capacity_j": matrix(st.one_of(st.just(0.0), st.floats(1e4, 1e6))),
        # Large rates cut charging short at a full pack.
        "charge_rate_w": matrix(st.floats(0.0, 500.0)),
        "idle_fraction": matrix(st.floats(-0.5, 1.5)),
    }


@settings(max_examples=200, deadline=None)
@given(block=_ledger_blocks())
def test_step_block_matches_the_per_pack_reference_bitwise(block):
    sites = [_pack_site(flag) for flag in block["has_battery"]]
    ledger = EnergyLedger(
        PackTable.from_sites(sites), min_state_of_charge=block["min_soc"]
    )
    ledger.soc = block["soc0"].copy()
    step_s = 3600.0
    got = ledger.step_block(
        block["modes"], block["device_j"], step_s, block["capacity_j"],
        block["charge_rate_w"], block["idle_fraction"],
    )
    expected = _reference_step_block(
        block["soc0"], block["has_battery"], block["min_soc"], block["modes"],
        block["device_j"], step_s, block["capacity_j"],
        block["charge_rate_w"], block["idle_fraction"],
    )
    for actual, reference in zip(got, expected):
        assert actual.tobytes() == reference.tobytes()
    assert ledger.soc.tobytes() == expected[2][-1].tobytes()


# ---------------------------------------------------------------------------
# Battery-aware load shedding (wear_derate)
# ---------------------------------------------------------------------------


class TestWearDerate:
    @staticmethod
    def _live_capacity(churn, packs):
        return churn.active * packs.requests_per_device_s

    def test_zero_derate_is_identity(self):
        site = ScenarioRunner(two_site_spec(5, seed=1, n_trace_days=2)).build_sites()[0]
        packs = PackTable.from_sites([site])
        churn = worn_churn([site], [0.5])
        capacity = self._live_capacity(churn, packs)
        assert _effective_capacity(churn, capacity, 0.0) is capacity

    def test_derate_scales_with_mean_wear(self):
        site = ScenarioRunner(two_site_spec(5, seed=1, n_trace_days=2)).build_sites()[0]
        churn = worn_churn([site], [0.5])
        assert churn.mean_battery_wear()[0] == pytest.approx(0.5)
        packs = PackTable.from_sites([site])
        capacity = self._live_capacity(churn, packs)
        assert _effective_capacity(churn, capacity, 1.0)[0] == pytest.approx(
            0.5 * capacity[0]
        )
        assert _effective_capacity(churn, capacity, 0.5)[0] == pytest.approx(
            0.75 * capacity[0]
        )

    @pytest.mark.parametrize("wear_derate", [0.0, 0.3, 0.5, 1.0])
    def test_derate_equals_the_scalar_oracle_bitwise(self, wear_derate):
        mixed = site_spec(
            "mixed",
            "caiso-like",
            n_trace_days=1,
            cohorts=(
                DeviceMixSpec("Pixel 3A", 7, requests_per_device_s=13.7),
                DeviceMixSpec("Nexus 4", 5, requests_per_device_s=6.1),
                DeviceMixSpec("HP ProLiant DL380 G6", 2, requests_per_device_s=200.0),
            ),
        )
        no_swap = site_spec(
            "no-swap", "hydro-heavy", 6, device="Nexus 5", n_trace_days=1,
            churn=ChurnSpec(swap_batteries=False),
        )
        sites = ScenarioRunner(fleet_spec(mixed, no_swap)).build_sites()
        packs = PackTable.from_sites(sites)
        # Distinct wear per pack, one pack past the point a full derate zeroes.
        churn = worn_churn(sites, (0.35, 1.2, 0.0, 0.8))
        derated = _effective_capacity(
            churn, self._live_capacity(churn, packs), wear_derate
        )
        rows = zip(
            packs.entries, churn.active.tolist(), churn.mean_battery_wear().tolist()
        )
        assert oracle.bits(derated) == oracle.bits(
            [
                oracle.effective_capacity_rps(entry, count, wear, wear_derate)
                for entry, count, wear in rows
            ]
        )

    def test_policy_carries_the_derate(self):
        from repro.fleet import policy_by_name

        policy = policy_by_name("greedy-lowest-intensity", wear_derate=0.3)
        assert policy.wear_derate == 0.3
        with pytest.raises(ValueError, match="wear derate"):
            RoundRobinRouting(wear_derate=1.5)

    def test_derated_simulation_still_serves_and_conserves(self):
        report = _run(None, policy=GreedyLowestIntensityRouting(wear_derate=0.5))
        assert report.total_served_requests > 0
        assert np.allclose(report.grid_kwh, report.energy_kwh)

    @staticmethod
    def _fast_wearing_sites():
        """The two-site fleet on batteries that wear ~10% of their life a day."""
        spec = two_site_spec(N_DEVICES, seed=6, n_trace_days=7)
        sites = []
        for site in ScenarioRunner(spec).build_sites():
            (cohort,) = site.cohorts
            device = cohort.device
            battery = dataclasses.replace(device.battery, cycle_life=40.0)
            cohort = dataclasses.replace(
                cohort, device=dataclasses.replace(device, battery=battery)
            )
            sites.append(dataclasses.replace(site, cohorts=(cohort,)))
        return sites

    def test_derate_and_dispatch_compose(self):
        """Idle headroom is physical: shed-but-idle devices still charge."""
        sites = self._fast_wearing_sites()
        policy = GreedyLowestIntensityRouting(wear_derate=0.8)
        derated = FleetSimulation(sites, policy, DEMAND)
        base = derated.run(N_DAYS)
        assert derated.churn.mean_battery_wear().min() > 0.1
        dispatched = FleetSimulation(
            sites, policy, DEMAND, dispatch=CarbonBufferDispatch()
        ).run(N_DAYS)
        assert np.allclose(
            base.energy_kwh, dispatched.grid_kwh + dispatched.battery_kwh
        )
        assert dispatched.total_charge_kwh > 0
        assert dispatched.carbon_avoided_g() > 0

    def test_des_path_honors_wear_derate(self):
        """The latency probe offers the same derated slots the hourly path does."""
        from repro.fleet import simulate_latency_aware

        sites = ScenarioRunner(two_site_spec(5, seed=4, n_trace_days=7)).build_sites()
        # Cascadia, the preferred site under greedy, is half worn.
        churn = worn_churn(sites, (0.0, 0.5))
        _, plain = simulate_latency_aware(
            sites, GreedyLowestIntensityRouting(),
            demand_rps=300.0, duration_s=10.0, seed=9, churn=churn,
        )
        _, derated = simulate_latency_aware(
            sites,
            GreedyLowestIntensityRouting(wear_derate=1.0),
            demand_rps=300.0, duration_s=10.0, seed=9, churn=churn,
        )
        # Half the clean site's slots are shed, so load spills to texas.
        assert derated["cascadia"] < plain["cascadia"]
        assert derated["texas"] > plain["texas"]
