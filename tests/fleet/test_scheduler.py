"""Routing policies, demand model, and the fleet simulation loop."""

import dataclasses

import numpy as np
import pytest

from fleet_oracles import bits, site_marginal_g
from fleet_specs import fleet_spec, pixel_rack_spec, site_spec, two_site_spec
from repro.fleet.dispatch import CarbonBufferDispatch, PackTable
from repro.fleet.population import ChurnTable
from repro.fleet.scheduler import (
    POLICIES,
    CapacityAwareMarginalCciRouting,
    DiurnalDemand,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    RoundRobinRouting,
    _waterfill,
    policy_by_name,
    simulate_latency_aware,
)
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import ChurnSpec, DeviceMixSpec


def report_bits(report):
    """Every field of a report, arrays as their bytes."""
    return [
        value.tobytes() if isinstance(value, np.ndarray) else repr(value)
        for value in (getattr(report, f.name) for f in dataclasses.fields(report))
    ]


class TestDiurnalDemand:
    def test_series_is_deterministic_and_positive(self):
        demand = DiurnalDemand(mean_rps=1000.0)
        a = demand.series(24 * 14)
        b = demand.series(24 * 14)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_peaks_at_peak_hour(self):
        demand = DiurnalDemand(mean_rps=1000.0, peak_hour=20.0, weekly_amplitude=0.0)
        day = demand.series(24)
        assert int(np.argmax(day)) == 20

    def test_weekend_dip(self):
        demand = DiurnalDemand(mean_rps=1000.0, daily_amplitude=0.0, weekly_amplitude=0.3)
        fortnight = demand.series(24 * 14)
        assert fortnight.min() < fortnight.max()

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("mean_rps", {"mean_rps": float("nan")}),
            ("mean_rps", {"mean_rps": float("inf")}),
            ("peak_hour", {"mean_rps": 100.0, "peak_hour": float("nan")}),
            ("peak_hour", {"mean_rps": 100.0, "peak_hour": float("inf")}),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, field, kwargs):
        """A NaN demand used to construct and fail a day later in the churn step."""
        with pytest.raises(ValueError, match=field):
            DiurnalDemand(**kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalDemand(mean_rps=0.0)
        with pytest.raises(ValueError):
            DiurnalDemand(mean_rps=1.0, daily_amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalDemand(mean_rps=1.0).series(0)


class TestWaterfill:
    def test_fills_cheapest_first(self):
        demand = np.array([10.0])
        capacity = np.array([[8.0, 8.0]])
        key = np.array([[2.0, 1.0]])
        alloc = _waterfill(demand, capacity, key)
        assert np.allclose(alloc, [[2.0, 8.0]])

    def test_caps_at_total_capacity(self):
        demand = np.array([100.0])
        capacity = np.array([[8.0, 8.0]])
        key = np.array([[1.0, 2.0]])
        alloc = _waterfill(demand, capacity, key)
        assert np.allclose(alloc, [[8.0, 8.0]])

    def test_ties_are_stable(self):
        """Equal keys resolve in site order, keeping runs reproducible."""
        demand = np.array([5.0])
        capacity = np.array([[8.0, 8.0]])
        key = np.array([[1.0, 1.0]])
        alloc = _waterfill(demand, capacity, key)
        assert np.allclose(alloc, [[5.0, 0.0]])


class TestPolicies:
    def test_registry_round_trips(self):
        for name in POLICIES:
            assert policy_by_name(name).name == name
        with pytest.raises(ValueError, match="unknown policy"):
            policy_by_name("random")

    def test_round_robin_splits_proportional_to_capacity(self):
        policy = RoundRobinRouting()
        alloc = policy.allocate(
            np.array([30.0]),
            np.array([[20.0, 40.0]]),
            np.array([[100.0, 500.0]]),
            np.array([[1.0, 5.0]]),
        )
        assert np.allclose(alloc, [[10.0, 20.0]])

    def test_greedy_prefers_clean_grid(self):
        policy = GreedyLowestIntensityRouting()
        alloc = policy.allocate(
            np.array([30.0]),
            np.array([[40.0, 40.0]]),
            np.array([[400.0, 100.0]]),
            np.array([[1.0, 5.0]]),  # marginal says otherwise; greedy ignores it
        )
        assert np.allclose(alloc, [[0.0, 30.0]])

    def test_marginal_cci_prefers_low_marginal_carbon(self):
        policy = CapacityAwareMarginalCciRouting()
        alloc = policy.allocate(
            np.array([30.0]),
            np.array([[40.0, 40.0]]),
            np.array([[100.0, 400.0]]),  # intensity says otherwise
            np.array([[5.0, 1.0]]),
        )
        assert np.allclose(alloc, [[0.0, 30.0]])

    def test_overload_is_dropped_not_overallocated(self):
        policy = GreedyLowestIntensityRouting()
        alloc = policy.allocate(
            np.array([1000.0]),
            np.array([[40.0, 40.0]]),
            np.array([[400.0, 100.0]]),
            np.array([[1.0, 1.0]]),
        )
        assert alloc.sum() == pytest.approx(80.0)


class TestFleetSimulation:
    @pytest.fixture(scope="class")
    def scenario(self):
        demand = DiurnalDemand(mean_rps=0.8 * 30 * DEFAULT_REQUESTS_PER_DEVICE_S)
        return demand

    def test_report_shapes(self, scenario):
        sites = ScenarioRunner(two_site_spec(30, seed=1, n_trace_days=7)).build_sites()
        report = FleetSimulation(sites, RoundRobinRouting(), scenario).run(14)
        assert report.served_rps.shape == (14 * 24, 2)
        assert report.active_devices.shape == (14, 2)
        assert report.total_served_requests > 0
        assert 0.0 <= report.availability() <= 1.0
        assert len(report.daily_cci_series()) == 14
        assert len(report.site_summaries()) == 2

    def test_carbon_aware_beats_round_robin(self, scenario):
        sites = ScenarioRunner(two_site_spec(30, seed=1, n_trace_days=7)).build_sites()
        rr, greedy = (
            FleetSimulation(sites, policy, scenario).run(14)
            for policy in (RoundRobinRouting(), GreedyLowestIntensityRouting())
        )
        assert np.isclose(rr.total_served_requests, greedy.total_served_requests)
        assert greedy.total_operational_carbon_g < rr.total_operational_carbon_g

    def test_reruns_are_bitwise_identical(self):
        """A run builds its churn state afresh: two simulations over one
        sites list, and two runs of one simulation, report the same bits."""
        spec = get_scenario("two-site-asymmetric").with_overrides(
            {"churn.annual_failure_rate": 3.0}
        )
        runner = ScenarioRunner(spec)
        sites = runner.build_sites()
        policy = policy_by_name(spec.routing.policy)

        def simulation():
            return FleetSimulation(sites, policy, runner.build_demand())

        first = simulation()
        reports = [first.run(60), first.run(60), simulation().run(60)]
        assert reports[0].cohort_failures.sum() > 0
        assert report_bits(reports[1]) == report_bits(reports[0])
        assert report_bits(reports[2]) == report_bits(reports[0])
        fresh = FleetSimulation(runner.build_sites(), policy, runner.build_demand())
        assert report_bits(fresh.run(60)) == report_bits(reports[0])

    def test_duplicate_site_names_rejected(self, scenario):
        sites = ScenarioRunner(two_site_spec(10, seed=0, n_trace_days=7)).build_sites()
        sites[1] = dataclasses.replace(sites[1], name=sites[0].name)
        with pytest.raises(ValueError, match="unique"):
            FleetSimulation(sites, RoundRobinRouting(), scenario)

    def test_overloaded_fleet_reports_drops(self):
        sites = ScenarioRunner(two_site_spec(5, seed=2, n_trace_days=7)).build_sites()
        demand = DiurnalDemand(mean_rps=100 * 5 * DEFAULT_REQUESTS_PER_DEVICE_S)
        report = FleetSimulation(sites, GreedyLowestIntensityRouting(), demand).run(3)
        assert report.total_dropped_requests > 0
        assert report.served_fraction() < 1.0


def _arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through containers and
    instance attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from _arrays(child, seen)


class TestTheReportIsTheRecord:
    """A finished simulation keeps its report and churn table, and the
    hindsight replay reads that report."""

    @pytest.fixture(scope="class")
    def runner(self):
        return ScenarioRunner(
            pixel_rack_spec(counts=(30, 15), n_trace_days=2).with_overrides(
                {"charging.coupling": "dispatch", "forecast.model": "noisy"}
            )
        )

    def _simulation(self, runner, dispatch=None):
        return FleetSimulation(
            runner.build_sites(),
            GreedyLowestIntensityRouting(),
            runner.build_demand(),
            dispatch=dispatch,
        )

    def test_replay_before_any_run_raises(self, runner):
        simulation = self._simulation(runner)
        with pytest.raises(RuntimeError, match="finished run"):
            simulation.replay_avoided_g(CarbonBufferDispatch())

    @pytest.mark.parametrize("lengths", [(3, 5), (5, 3)])
    def test_replay_prices_the_latest_run(self, runner, lengths):
        simulation = self._simulation(runner)
        for n_days in lengths:
            simulation.run(n_days)
        replayed = simulation.replay_avoided_g(CarbonBufferDispatch())
        simulated = self._simulation(runner, CarbonBufferDispatch()).run(lengths[-1])
        assert simulated.carbon_avoided_g() > 0
        assert bits([replayed]) == bits([simulated.carbon_avoided_g()])

    def test_no_hourly_pack_matrix_outside_the_report(self, runner):
        simulation = self._simulation(runner, runner.build_dispatch())
        report = simulation.run(4)
        hourly = report.cohort_served_rps.shape
        assert hourly[1] != len(report.site_names)  # a mixed site: C != S
        fields = [getattr(report, f.name) for f in dataclasses.fields(report)]
        # The report itself, the pack constants and the churn state aside.
        seen = {id(report), id(simulation.packs), id(simulation.churn)}
        stray = [
            array
            for array in _arrays(vars(simulation), seen)
            if array.shape == hourly and not any(array is f for f in fields)
        ]
        assert stray == []


class TestLatencyAwarePath:
    def test_des_serves_requests_deterministically(self):
        spec = two_site_spec(10, seed=4, n_trace_days=7)
        sites = ScenarioRunner(spec).build_sites()
        summary_a, by_site_a = simulate_latency_aware(
            sites, GreedyLowestIntensityRouting(), demand_rps=50.0, duration_s=10.0, seed=9
        )
        sites_b = ScenarioRunner(spec).build_sites()
        summary_b, by_site_b = simulate_latency_aware(
            sites_b, GreedyLowestIntensityRouting(), demand_rps=50.0, duration_s=10.0, seed=9
        )
        assert summary_a.completed == summary_b.completed
        assert by_site_a == by_site_b
        assert summary_a.completion_ratio > 0.9
        # Latency >= service time + RTT of the chosen site.
        rate = sites[0].cohorts[0].requests_per_device_s
        assert summary_a.median_ms >= 1_000.0 / rate

    def test_greedy_routes_to_clean_site_until_saturation(self):
        sites = ScenarioRunner(two_site_spec(5, seed=4, n_trace_days=7)).build_sites()
        _, by_site = simulate_latency_aware(
            sites,
            GreedyLowestIntensityRouting(),
            demand_rps=300.0,  # 3x one site's capacity: must spill over
            duration_s=10.0,
            seed=9,
        )
        assert by_site["cascadia"] > by_site["texas"] > 0

    def test_duplicate_site_names_rejected(self):
        """Two sites named alike would share one served count and one pool."""
        sites = ScenarioRunner(two_site_spec(20, n_trace_days=2)).build_sites()
        sites[1] = dataclasses.replace(sites[1], name=sites[0].name)
        with pytest.raises(ValueError, match="site names must be unique"):
            simulate_latency_aware(
                sites,
                GreedyLowestIntensityRouting(),
                demand_rps=300.0,
                duration_s=2.0,
            )

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("demand_rps", float("nan")),
            ("demand_rps", float("inf")),
            ("demand_rps", 0.0),
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("duration_s", -1.0),
            ("queue_penalty_g", float("nan")),
            ("queue_penalty_g", float("inf")),
            ("queue_penalty_g", -1e-6),
        ],
    )
    def test_invalid_numeric_inputs_rejected_by_name(self, argument, value):
        """NaN used to route everything to site 0, and an infinite duration hung."""
        sites = ScenarioRunner(two_site_spec(5, seed=4, n_trace_days=2)).build_sites()
        kwargs = {"demand_rps": 50.0, "duration_s": 1.0, "queue_penalty_g": 5e-6}
        kwargs[argument] = value
        with pytest.raises(ValueError, match=argument):
            simulate_latency_aware(sites, GreedyLowestIntensityRouting(), **kwargs)

    def test_request_keys_are_one_key_per_arrival_and_site(self):
        """Each site's key is its best cohort's scalar marginal, bit for bit."""
        spec = fleet_spec(
            site_spec("texas", "ercot-like", 5, n_trace_days=2),
            site_spec(
                "mixed", "hydro-heavy", n_trace_days=2,
                cohorts=(
                    DeviceMixSpec(count=5, requests_per_device_s=13.7),
                    DeviceMixSpec("Nexus 4", 4, requests_per_device_s=6.1),
                    DeviceMixSpec(
                        "HP ProLiant DL380 G6", 2, requests_per_device_s=200.0
                    ),
                ),
            ),
            site_spec(
                "no-swap", "caiso-like", 3, device="Nexus 5", n_trace_days=2,
                churn=ChurnSpec(swap_batteries=False),
            ),
        )
        sites = ScenarioRunner(spec).build_sites()
        packs = PackTable.from_sites(sites)
        times = np.array([0.0, 1_800.0, 86_400.0 * 3 + 5.0])
        intensity = np.stack(
            [site.trace.intensities_at(times, wrap=True) for site in sites], axis=1
        )
        assert RoundRobinRouting().request_keys(packs, intensity) is None
        for policy, include_wear in (
            (GreedyLowestIntensityRouting(), False),
            (CapacityAwareMarginalCciRouting(), True),
        ):
            keys = policy.request_keys(packs, intensity)
            assert keys.shape == (times.size, len(sites))
            want = [
                site_marginal_g(site, value, include_wear)
                for row in intensity.tolist()
                for site, value in zip(sites, row)
            ]
            assert bits(keys) == bits(want)

    @staticmethod
    def _sites(*dead):
        """Texas and cascadia, and their churn table stepped until each
        site named in ``dead`` (no spares or intake) has lost every device."""
        dying = ChurnSpec(
            intake_per_day=0.0, initial_spares=0, annual_failure_rate=200.0
        )
        spec = fleet_spec(*(
            site_spec(
                name, region, 20, n_trace_days=2,
                churn=dying if name in dead else ChurnSpec(),
            )
            for name, region in (("texas", "ercot-like"), ("cascadia", "hydro-heavy"))
        ))
        sites = ScenarioRunner(spec).build_sites()
        churn = ChurnTable(site.cohorts[0] for site in sites)
        rows = [index for index, site in enumerate(sites) if site.name in dead]
        while churn.active[rows].any():
            churn.step(1.0)
        return sites, churn

    @pytest.mark.parametrize(
        "policy", [GreedyLowestIntensityRouting(), RoundRobinRouting()]
    )
    def test_site_without_live_devices_gets_no_requests(self, policy):
        """It used to keep one phantom slot and serve the clean-grid share."""
        sites, churn = self._sites("cascadia")
        summary, by_site = simulate_latency_aware(
            sites, policy, demand_rps=300.0, duration_s=2.0, seed=9, churn=churn
        )
        assert by_site == {"texas": summary.offered, "cascadia": 0}
        assert summary.offered > 0

    def test_fleet_without_live_devices_rejected(self):
        sites, churn = self._sites("texas", "cascadia")
        with pytest.raises(ValueError, match="site with live devices"):
            simulate_latency_aware(
                sites, GreedyLowestIntensityRouting(), demand_rps=300.0,
                duration_s=2.0, churn=churn,
            )

    def test_churn_table_must_be_the_sites_cohorts(self):
        sites, _ = self._sites()
        other = ChurnTable([sites[1].cohorts[0], sites[0].cohorts[0]])
        with pytest.raises(ValueError, match="sites' cohorts"):
            simulate_latency_aware(
                sites, GreedyLowestIntensityRouting(), demand_rps=300.0,
                duration_s=2.0, churn=other,
            )

    def test_empty_site_list_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            simulate_latency_aware(
                [], GreedyLowestIntensityRouting(), demand_rps=300.0, duration_s=2.0
            )


class TestServiceDistributions:
    """Per-request service-time distributions in the latency probe."""

    @staticmethod
    def _probe(service_distribution, seed=3):
        sites = ScenarioRunner(two_site_spec(5, seed=1, n_trace_days=2)).build_sites()
        return simulate_latency_aware(
            sites,
            GreedyLowestIntensityRouting(),
            demand_rps=60.0,
            duration_s=10.0,
            seed=seed,
            service_distribution=service_distribution,
        )

    def test_deterministic_is_the_default_and_unchanged(self):
        explicit, _ = self._probe("deterministic")
        sites = ScenarioRunner(two_site_spec(5, seed=1, n_trace_days=2)).build_sites()
        default, _ = simulate_latency_aware(
            sites, GreedyLowestIntensityRouting(), demand_rps=60.0,
            duration_s=10.0, seed=3,
        )
        assert explicit.median_ms == default.median_ms
        assert explicit.p99_ms == default.p99_ms

    @pytest.mark.parametrize("distribution", ["exponential", "lognormal"])
    def test_stochastic_distributions_are_seed_deterministic(self, distribution):
        first, served_first = self._probe(distribution)
        second, served_second = self._probe(distribution)
        assert first.median_ms == second.median_ms
        assert first.p99_ms == second.p99_ms
        assert served_first == served_second

    def test_stochastic_service_spreads_the_tail(self):
        fixed, _ = self._probe("deterministic")
        exponential, _ = self._probe("exponential")
        # Same mean service time, but per-request jitter must widen the
        # spread between median and p99 beyond the deterministic case.
        assert (exponential.p99_ms - exponential.median_ms) > (
            fixed.p99_ms - fixed.median_ms
        )

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="service distribution"):
            self._probe("pareto")
