"""Fleet scaling — 10,000 devices over one simulated year.

The acceptance bar for the fleet subsystem: a fleet of >= 10,000 reused
phones across geo-distributed sites simulates >= 1 year of virtual time
(hourly scheduling, daily churn) deterministically and inside a strict
wall-clock budget, and the carbon-aware policies strictly beat round-robin
on operational carbon in the asymmetric two-site scenario.

Timed cases run with telemetry spans *enabled*, so the wall-clock budget
doubles as the instrumentation-overhead bar, and each labelled case's
wall clock + per-phase breakdown lands in the untracked
``.bench_out/BENCH_fleet_scaling.json`` (the input of ``python -m repro
bench record/check``), so running the suite never modifies a tracked file.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.fleet import (
    CapacityAwareMarginalCciRouting,
    CarbonBufferDispatch,
    DiurnalDemand,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    RoundRobinRouting,
)
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S
from repro.scenarios import (
    ChurnSpec,
    DemandSpec,
    DeviceMixSpec,
    RoutingSpec,
    ScenarioRunner,
    ScenarioSpec,
    SiteSpec,
    TraceSpec,
    get_scenario,
)
from repro.telemetry import Telemetry

#: 2 sites x 5,000 devices = 10,000-device fleet.
DEVICES_PER_SITE = 5_000
N_DAYS = 366
#: Wall-clock budget (seconds) for one full-year, 10k-device simulation.
WALL_CLOCK_BUDGET_S = 60.0

#: 2 sites x 500,000 devices = the million-device scale-out target, run for
#: two simulated years.  Churn is
#: the per-device floor (~1 uniform draw per device-day), so the budget is
#: sized off that: ~36 s measured on a dev box, 120 s leaves >3x headroom
#: for slower CI runners.
MILLION_DEVICES_PER_SITE = 500_000
MILLION_N_DAYS = 732
MILLION_WALL_CLOCK_BUDGET_S = 120.0

#: The bucketed churn engine must beat the committed per-device wall clock
#: by >= 3x on the same 1M x 2-year case (PR 8 recorded ~33 s), so its
#: budget is a third of the device-sampler budget.
MILLION_BUCKET_BUDGET_S = MILLION_WALL_CLOCK_BUDGET_S / 3.0

#: 2 sites x 5,000,000 devices = the 10M-device case.  Only reachable with
#: the bucketed engine (per-device churn alone would blow the budget); one
#: simulated year inside the same 120 s envelope as the 1M device case.
TEN_MILLION_DEVICES_PER_SITE = 5_000_000
TEN_MILLION_N_DAYS = 366
TEN_MILLION_WALL_CLOCK_BUDGET_S = 120.0

#: 128 sites x 2,000 Pixel 3A on 1-day traces for a year: the sites axis
#: of the churn table (128 rows, one column per day), bucket churn, greedy
#: routing and no probe.  ~1.6 s measured on a shared 2-core box (3.3 s
#: before churn became one table step); the budget leaves >3x headroom.
SITES_128 = 128
SITES_128_DEVICES_PER_SITE = 2_000
SITES_128_N_DAYS = 365
SITES_128_BUDGET_S = 6.0

#: 2 sites x 20,000 Pixel 3A through a whole ``run scenario`` with the
#: default 5 s latency probe, which offers ~2M requests and is ~99% of the
#: wall clock.  1.8-3.4 s measured on a shared 2-core box (4.0-6.4 s before
#: backlog-free arrivals skipped the penalty scan); the budget leaves >4x
#: headroom for slower CI runners.
PROBE_DEVICES_PER_SITE = 20_000
PROBE_BUDGET_S = 15.0

DEMAND = DiurnalDemand(
    mean_rps=0.9 * DEVICES_PER_SITE * DEFAULT_REQUESTS_PER_DEVICE_S
)

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".bench_out",
    "BENCH_fleet_scaling.json",
)

#: Labelled-case records accumulated by ``_run`` and flushed at module exit.
_CASES = []


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Flush every labelled case to :data:`BENCH_JSON` on teardown."""
    yield
    if not _CASES:
        return
    payload = {
        "benchmark": "fleet_scaling",
        "devices": 2 * DEVICES_PER_SITE,
        "n_days": N_DAYS,
        "wall_clock_budget_s": WALL_CLOCK_BUDGET_S,
        "cases": _CASES,
    }
    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run(
    policy,
    seed: int = 42,
    dispatch=None,
    case=None,
    devices_per_site: int = DEVICES_PER_SITE,
    n_days: int = N_DAYS,
    demand=None,
    churn_sampler: str = "device",
    spec=None,
):
    """Run one labelled fleet case; a ``case`` label records it for the JSON.

    The fleet is ``spec``'s sites, by default the ``two-site-asymmetric``
    preset's two sites at ``devices_per_site`` phones each.
    """
    if spec is None:
        spec = get_scenario("two-site-asymmetric").with_overrides(
            {
                "seed": seed,
                "sites.0.devices.count": devices_per_site,
                "sites.1.devices.count": devices_per_site,
                "churn.sampler": churn_sampler,
            }
        )
    telemetry = Telemetry() if case else None
    start = time.perf_counter()
    simulation = FleetSimulation(
        ScenarioRunner(spec).build_sites(),
        policy,
        demand if demand is not None else DEMAND,
        dispatch=dispatch,
        telemetry=telemetry,
    )
    result = simulation.run(n_days)
    elapsed = time.perf_counter() - start
    if case:
        _record(case, spec, n_days, churn_sampler, elapsed, telemetry)
    return result, elapsed


def _record(case, spec, n_days, churn_sampler, elapsed, telemetry, **extra):
    """Append one labelled case's wall clock and telemetry to the JSON."""
    devices = sum(site.devices.count for site in spec.sites)
    _CASES.append(
        {
            "case": case,
            "devices": devices,
            "n_days": n_days,
            "churn_sampler": churn_sampler,
            "wall_s": round(elapsed, 4),
            "device_days_per_s": round(devices * n_days / elapsed, 1),
            "phases": [
                {"path": path, "calls": calls, "total_s": round(total, 4)}
                for path, (calls, total) in sorted(telemetry.phase_totals().items())
            ],
            "counters": dict(telemetry.counters),
            **extra,
        }
    )


def test_fleet_year_within_wall_clock_budget(report):
    result, elapsed = _run(GreedyLowestIntensityRouting(), case="greedy-year")

    report(
        "Fleet scaling (10k devices, 1 year, greedy policy)",
        "\n".join(
            f"{key}: {value}" for key, value in result.summary_dict().items()
        )
        + f"\nwall clock: {elapsed:.2f} s",
    )
    assert result.active_devices.shape == (N_DAYS, 2)
    assert result.total_served_requests > 0
    # A year of churn on 10k devices must see real lifecycle activity: the
    # paper's ~2.3-year battery life means only a sliver wears out in year
    # one, but age-dependent hardware failures churn steadily.
    assert result.failures.sum() > 100
    assert 0.9 <= result.availability() <= 1.0
    assert elapsed < WALL_CLOCK_BUDGET_S


def test_fleet_year_with_dispatch_within_wall_clock_budget(report):
    """The battery ledger stays inside the same budget as the plain loop."""
    result, elapsed = _run(
        GreedyLowestIntensityRouting(),
        dispatch=CarbonBufferDispatch(),
        case="greedy-year-dispatch",
    )

    baseline, _ = _run(GreedyLowestIntensityRouting())
    avoided = result.carbon_avoided_g()
    report(
        "Fleet scaling with energy dispatch (10k devices, 1 year)",
        f"battery served {result.total_battery_discharge_kwh:.1f} kWh, "
        f"charged {result.total_charge_kwh:.1f} kWh, "
        f"avoided {avoided / 1e3:.2f} kg operational carbon"
        f"\nwall clock: {elapsed:.2f} s",
    )
    assert elapsed < WALL_CLOCK_BUDGET_S
    # The coupled ledger must pay off, never cost, operational carbon.
    assert avoided > 0
    assert (
        result.total_operational_carbon_g <= baseline.total_operational_carbon_g
    )
    # SoC bounds hold at scale.
    assert float(result.soc.min()) >= 0.25 - 1e-9
    assert float(result.soc.max()) <= 1.0 + 1e-9


def test_fleet_year_is_deterministic(report):
    first, _ = _run(CapacityAwareMarginalCciRouting(), seed=7, case="marginal-year")
    second, _ = _run(CapacityAwareMarginalCciRouting(), seed=7)

    assert first.fleet_cci_g_per_request() == second.fleet_cci_g_per_request()
    assert np.array_equal(first.served_rps, second.served_rps)
    assert np.array_equal(first.active_devices, second.active_devices)
    assert np.array_equal(first.replacement_carbon_g, second.replacement_carbon_g)

    different_seed, _ = _run(CapacityAwareMarginalCciRouting(), seed=8)
    assert not np.array_equal(
        different_seed.failures, first.failures
    ), "different seeds should produce different churn trajectories"

    report(
        "Fleet determinism",
        f"seed 7 fleet CCI: {first.fleet_cci_g_per_request():.6e} (bit-identical reruns)",
    )


def test_million_devices_two_years_within_wall_clock_budget(report):
    """The scale-out target: 1M devices x 2 years.

    Runs the full coupled stack (carbon-buffer dispatch on every pack).
    Bitwise identity of the fleet loop is locked separately by
    ``tests/fleet/test_execution_identity.py``; this case pins the speed.
    """
    demand = DiurnalDemand(
        mean_rps=0.9 * MILLION_DEVICES_PER_SITE * DEFAULT_REQUESTS_PER_DEVICE_S
    )
    result, elapsed = _run(
        GreedyLowestIntensityRouting(),
        dispatch=CarbonBufferDispatch(),
        case="million-two-years-dispatch",
        devices_per_site=MILLION_DEVICES_PER_SITE,
        n_days=MILLION_N_DAYS,
        demand=demand,
    )

    devices = 2 * MILLION_DEVICES_PER_SITE
    throughput = devices * MILLION_N_DAYS / elapsed
    report(
        "Fleet scaling (1M devices, 2 years, dispatch)",
        f"wall clock: {elapsed:.2f} s "
        f"({throughput / 1e6:.1f}M device-days/s)\n"
        f"battery served {result.total_battery_discharge_kwh:.1f} kWh, "
        f"avoided {result.carbon_avoided_g() / 1e6:.1f} t operational carbon",
    )
    assert result.active_devices.shape == (MILLION_N_DAYS, 2)
    assert elapsed < MILLION_WALL_CLOCK_BUDGET_S
    # Two years of churn on a million devices: substantial lifecycle
    # activity (the paper's ~2.3-year battery life bites in year two).
    assert result.failures.sum() > 10_000
    # The coupled ledger still pays off at scale, and SoC bounds hold.
    assert result.carbon_avoided_g() > 0
    assert float(result.soc.min()) >= 0.25 - 1e-9
    assert float(result.soc.max()) <= 1.0 + 1e-9


def test_million_devices_bucket_churn_within_third_of_budget(report):
    """The bucketed churn engine on the same 1M x 2-year configuration.

    ``churn.sampler=bucket`` collapses per-device churn state into
    deploy-day buckets (one binomial per bucket-day), so the same coupled
    stack must land >= 3x under the device-sampler budget and churn must
    stop dominating the wall clock (<50% of it).  Distributional
    equivalence with the device engine is locked separately by
    ``tests/fleet/test_churn.py``; this case pins the speed.
    """
    demand = DiurnalDemand(
        mean_rps=0.9 * MILLION_DEVICES_PER_SITE * DEFAULT_REQUESTS_PER_DEVICE_S
    )
    result, elapsed = _run(
        GreedyLowestIntensityRouting(),
        dispatch=CarbonBufferDispatch(),
        case="million-two-years-bucket",
        devices_per_site=MILLION_DEVICES_PER_SITE,
        n_days=MILLION_N_DAYS,
        demand=demand,
        churn_sampler="bucket",
    )

    devices = 2 * MILLION_DEVICES_PER_SITE
    throughput = devices * MILLION_N_DAYS / elapsed
    churn_s = sum(
        phase["total_s"]
        for phase in _CASES[-1]["phases"]
        if phase["path"].endswith("step_population")
    )
    report(
        "Fleet scaling (1M devices, 2 years, bucketed churn)",
        f"wall clock: {elapsed:.2f} s "
        f"({throughput / 1e6:.1f}M device-days/s), "
        f"churn {churn_s:.2f} s ({churn_s / elapsed:.0%} of wall)\n"
        f"battery served {result.total_battery_discharge_kwh:.1f} kWh, "
        f"avoided {result.carbon_avoided_g() / 1e6:.1f} t operational carbon",
    )
    assert result.active_devices.shape == (MILLION_N_DAYS, 2)
    assert elapsed < MILLION_BUCKET_BUDGET_S
    # Churn no longer dominates: the bucketed engine's O(buckets) step
    # must be a minority share of the wall clock.
    assert churn_s < 0.5 * elapsed
    # Same lifecycle physics as the device-sampler case (different RNG
    # stream, same distribution): real churn and a real dispatch win.
    assert result.failures.sum() > 10_000
    assert result.carbon_avoided_g() > 0
    assert float(result.soc.min()) >= 0.25 - 1e-9
    assert float(result.soc.max()) <= 1.0 + 1e-9


def test_ten_million_devices_year_with_bucket_churn(report):
    """10M devices x 1 year — only reachable with the bucketed engine.

    Bucket count scales with simulated days, not devices, so a 10x bigger
    fleet costs roughly the same churn time as the 1M case; the remaining
    wall clock is the (vectorized, device-count-independent-per-day)
    allocation and dispatch replay.
    """
    demand = DiurnalDemand(
        mean_rps=0.9
        * TEN_MILLION_DEVICES_PER_SITE
        * DEFAULT_REQUESTS_PER_DEVICE_S
    )
    result, elapsed = _run(
        GreedyLowestIntensityRouting(),
        dispatch=CarbonBufferDispatch(),
        case="ten-million-year-bucket",
        devices_per_site=TEN_MILLION_DEVICES_PER_SITE,
        n_days=TEN_MILLION_N_DAYS,
        demand=demand,
        churn_sampler="bucket",
    )

    devices = 2 * TEN_MILLION_DEVICES_PER_SITE
    throughput = devices * TEN_MILLION_N_DAYS / elapsed
    report(
        "Fleet scaling (10M devices, 1 year, bucketed churn)",
        f"wall clock: {elapsed:.2f} s "
        f"({throughput / 1e6:.1f}M device-days/s)\n"
        f"avoided {result.carbon_avoided_g() / 1e6:.1f} t operational carbon",
    )
    assert result.active_devices.shape == (TEN_MILLION_N_DAYS, 2)
    assert elapsed < TEN_MILLION_WALL_CLOCK_BUDGET_S
    assert result.failures.sum() > 100_000
    assert result.carbon_avoided_g() > 0
    assert float(result.soc.min()) >= 0.25 - 1e-9
    assert float(result.soc.max()) <= 1.0 + 1e-9


def test_sites_128_year_bucket_within_budget(report):
    """128 sites x 2,000 phones for a year: one churn-table step per day.

    Each day steps 128 cohorts in one table pass, so the churn cost is the
    cohorts' own random draws plus array work over the table.
    """
    regions = ("caiso-like", "ercot-like", "hydro-heavy")
    spec = ScenarioSpec(
        name="sites-128-year-bucket",
        sites=tuple(
            SiteSpec(
                name=f"site-{index:03d}",
                trace=TraceSpec(kind="regional", region=regions[index % 3], n_days=1),
                devices=DeviceMixSpec(
                    device="Pixel 3A", count=SITES_128_DEVICES_PER_SITE
                ),
                churn=ChurnSpec(sampler="bucket"),
            )
            for index in range(SITES_128)
        ),
        routing=RoutingSpec(policy="greedy-lowest-intensity", latency_probe_s=0.0),
        demand=DemandSpec(fraction_of_capacity=0.5),
        duration_days=SITES_128_N_DAYS,
    )
    result, elapsed = _run(
        GreedyLowestIntensityRouting(),
        case="sites-128-year-bucket",
        n_days=SITES_128_N_DAYS,
        demand=ScenarioRunner(spec).build_demand(),
        churn_sampler="bucket",
        spec=spec,
    )
    counters = _CASES[-1]["counters"]
    churn_s = sum(
        phase["total_s"]
        for phase in _CASES[-1]["phases"]
        if phase["path"].endswith("step_population")
    )
    report(
        "Fleet scaling (128 sites x 2,000 devices, 1 year, bucketed churn)",
        f"wall clock: {elapsed:.2f} s, churn {churn_s:.2f} s "
        f"({counters['churn.cohort_days'] / churn_s:,.0f} cohort-days/s)",
    )
    assert result.active_devices.shape == (SITES_128_N_DAYS, SITES_128)
    assert counters["churn.cohort_days"] == SITES_128 * SITES_128_N_DAYS
    assert result.failures.sum() > 10_000
    assert elapsed < SITES_128_BUDGET_S


def test_probe_two_site_20k_within_budget(report):
    """The exact latency probe at 2 x 20,000 devices, end to end.

    ``run scenario two-site-asymmetric`` on bucket churn: the 30-day fleet
    loop plus the default 5 s probe, whose per-request recursion is what a
    ``run scenario`` user waits on at this size.
    """
    spec = get_scenario("two-site-asymmetric").with_overrides(
        {
            "sites.0.devices.count": PROBE_DEVICES_PER_SITE,
            "sites.1.devices.count": PROBE_DEVICES_PER_SITE,
            "churn.sampler": "bucket",
        }
    )
    telemetry = Telemetry()
    start = time.perf_counter()
    result = ScenarioRunner(spec, telemetry=telemetry).run()
    elapsed = time.perf_counter() - start
    probe_s = sum(
        total
        for path, (_, total) in telemetry.phase_totals().items()
        if path.endswith("latency_probe")
    )
    offered = telemetry.counters["probe.offered"]
    _record(
        "probe-two-site-20k",
        spec,
        spec.duration_days,
        "bucket",
        elapsed,
        telemetry,
        probe_requests_per_s=round(offered / probe_s, 1),
    )
    latency = result.latency
    report(
        "Latency probe (2 x 20,000 devices, 5 s probe)",
        f"wall clock: {elapsed:.2f} s, probe {probe_s:.2f} s "
        f"({offered / probe_s:,.0f} req/s over {offered:,} requests, "
        f"{telemetry.counters['probe.scanned']:,} scanned)\n"
        f"median {latency.median_ms:.2f} ms, p99 {latency.p99_ms:.2f} ms",
    )
    assert latency.offered == offered
    assert latency.offered == latency.completed
    assert elapsed < PROBE_BUDGET_S


def test_carbon_aware_beats_round_robin(report):
    baseline, _ = _run(RoundRobinRouting(), case="round-robin-year")
    greedy, _ = _run(GreedyLowestIntensityRouting())
    marginal, _ = _run(CapacityAwareMarginalCciRouting())

    # Identical service delivered...
    assert np.isclose(
        baseline.total_served_requests, greedy.total_served_requests, rtol=1e-9
    )
    # ...at strictly lower operational carbon for both carbon-aware policies.
    assert greedy.total_operational_carbon_g < baseline.total_operational_carbon_g
    assert marginal.total_operational_carbon_g < baseline.total_operational_carbon_g
    # The asymmetry is large (ERCOT-like vs hydro-heavy), so the win should
    # be substantial, not epsilon.
    savings = 1.0 - greedy.total_operational_carbon_g / baseline.total_operational_carbon_g
    assert savings > 0.05

    report(
        "Policy comparison (10k devices, 1 year)",
        "\n".join(
            f"{name}: {r.total_operational_carbon_g / 1e3:.1f} kg operational, "
            f"CCI {r.fleet_cci_g_per_request():.3e} g/request"
            for name, r in (
                ("round-robin", baseline),
                ("greedy-lowest-intensity", greedy),
                ("marginal-cci", marginal),
            )
        )
        + f"\ngreedy saves {savings:.1%} operational carbon vs round-robin",
    )
