"""Figure data builders: one function per figure of the paper's evaluation.

Each ``figN_*`` function computes the data behind the corresponding figure and
returns plain data structures (dataclasses, dicts, numpy arrays) that the
benchmark harness, the examples, and downstream users can print, assert on,
or plot.  No plotting is performed here — the library stays matplotlib-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.charging import smart_charging_savings
from repro.charging.simulation import ChargingStudyResult
from repro.cluster.cloudlet import paper_cloudlets
from repro.core.carbon import CarbonComponents, operational_carbon_g
from repro.core.cci import DeviceCarbonModel, computational_carbon_intensity
from repro.core.lifetime import LifetimeSweep, default_lifetimes
from repro.devices.battery import replacement_carbon_kg
from repro.devices.benchmarks import DIJKSTRA, PDF_RENDER, SGEMM, MicroBenchmark
from repro.devices.catalog import (
    C5_9XLARGE,
    NEXUS_4,
    PIXEL_3A,
    POWEREDGE_R740,
    PROLIANT_DL380_G6,
    THINKPAD_X1_CARBON_G3,
    T4gInstance,
    flagship_years,
    t4g_instances,
    yearly_flagship_phones,
)
from repro.devices.power import LIGHT_MEDIUM
from repro.devices.specs import DeviceSpec
from repro.grid.mix import EnergyMix, california, constant_mix, solar_24_7, zero_carbon
from repro.grid.traces import CaisoLikeTraceGenerator, GridTrace
from repro.microservices import calibration as cal
from repro.microservices.apps import (
    COMPOSE_POST,
    HOTEL_MIXED_WORKLOAD,
    READ_USER_TIMELINE,
    hotel_reservation,
    social_network,
)
from repro.microservices.cluster import ServingCluster, ec2_instance, pixel_cloudlet
from repro.microservices.sweep import SweepResult, latency_throughput_sweep
from repro.thermal.cooling import FAN_EMBODIED_KG, FAN_POWER_W
from repro.thermal.experiment import run_light_medium_test, run_stress_test
from repro.thermal.model import ThermalSimulationResult
from repro import units

# ---------------------------------------------------------------------------
# Figure 1 — smartphone capability versus AWS T4g instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapabilityTrend:
    """Per-year mean/min/max of one capability metric across flagship phones."""

    years: np.ndarray
    mean: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray


@dataclass(frozen=True)
class Figure1Data:
    """Everything plotted in Figure 1."""

    performance: CapabilityTrend
    cores: CapabilityTrend
    memory_min: CapabilityTrend
    memory_max: CapabilityTrend
    t4g_references: Tuple[T4gInstance, ...]

    def first_year_phones_reach(self, instance_name: str) -> Optional[int]:
        """First year the mean phone Geekbench score reaches the given T4g size."""
        reference = {t.name: t for t in self.t4g_references}.get(instance_name)
        if reference is None:
            raise KeyError(f"unknown T4g instance {instance_name!r}")
        for year, mean in zip(self.performance.years, self.performance.mean):
            if mean >= reference.geekbench_norm:
                return int(year)
        return None


def _trend(values_by_year: Mapping[int, List[float]]) -> CapabilityTrend:
    years = np.array(sorted(values_by_year), dtype=float)
    mean = np.array([np.mean(values_by_year[int(y)]) for y in years])
    minimum = np.array([np.min(values_by_year[int(y)]) for y in years])
    maximum = np.array([np.max(values_by_year[int(y)]) for y in years])
    return CapabilityTrend(years=years, mean=mean, minimum=minimum, maximum=maximum)


def fig1_phone_capability() -> Figure1Data:
    """Build the Figure 1 capability-versus-cloud-instance comparison."""
    perf: Dict[int, List[float]] = {}
    cores: Dict[int, List[float]] = {}
    mem_min: Dict[int, List[float]] = {}
    mem_max: Dict[int, List[float]] = {}
    for year in flagship_years():
        phones = yearly_flagship_phones(year)
        perf[year] = [p.geekbench_norm for p in phones]
        cores[year] = [float(p.cores) for p in phones]
        mem_min[year] = [p.memory_min_gib for p in phones]
        mem_max[year] = [p.memory_max_gib for p in phones]
    return Figure1Data(
        performance=_trend(perf),
        cores=_trend(cores),
        memory_min=_trend(mem_min),
        memory_max=_trend(mem_max),
        t4g_references=t4g_instances(),
    )


# ---------------------------------------------------------------------------
# Figure 2 — single-device CCI trends
# ---------------------------------------------------------------------------

#: The devices plotted in Figure 2 (reused devices only; the new server is
#: added in Figure 5/6).
FIGURE2_DEVICES: Tuple[DeviceSpec, ...] = (
    PROLIANT_DL380_G6,
    THINKPAD_X1_CARBON_G3,
    NEXUS_4,
    PIXEL_3A,
)

#: The three benchmarks plotted in Figure 2.
FIGURE2_BENCHMARKS: Tuple[MicroBenchmark, ...] = (SGEMM, PDF_RENDER, DIJKSTRA)


def fig2_single_device_cci(
    benchmarks: Sequence[MicroBenchmark] = FIGURE2_BENCHMARKS,
    devices: Sequence[DeviceSpec] = FIGURE2_DEVICES,
    months: Optional[Sequence[float]] = None,
    energy_mix: Optional[EnergyMix] = None,
) -> Dict[str, LifetimeSweep]:
    """Single-device CCI versus lifetime, per benchmark (California mix, C_M=0)."""
    grid = np.asarray(months if months is not None else default_lifetimes())
    mix = energy_mix or california()
    sweeps: Dict[str, LifetimeSweep] = {}
    for benchmark in benchmarks:
        series = {}
        for device in devices:
            model = DeviceCarbonModel(device=device, energy_mix=mix, reused=True)
            series[device.name] = model.cci_series(benchmark, grid)
        sweeps[benchmark.name] = LifetimeSweep(
            months=grid,
            series=series,
            metric_unit=f"gCO2e/{benchmark.work_unit}",
        )
    return sweeps


# ---------------------------------------------------------------------------
# Figure 3 — thermal stress test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure3Data:
    """Both thermal scenarios of Figure 3."""

    full_load: ThermalSimulationResult
    light_medium: ThermalSimulationResult


def fig3_thermal(duration_s: float = 45 * 60.0) -> Figure3Data:
    """Run the Styrofoam-box thermal experiment in both load scenarios."""
    return Figure3Data(
        full_load=run_stress_test(duration_s=duration_s),
        light_medium=run_light_medium_test(duration_s=duration_s),
    )


# ---------------------------------------------------------------------------
# Figure 4 — smart charging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure4Data:
    """Smart-charging results for the devices the paper studies."""

    trace: GridTrace
    studies: Mapping[str, ChargingStudyResult]

    def median_savings(self, device_name: str) -> float:
        """Median daily savings fraction for one device."""
        return self.studies[device_name].median_savings


def fig4_smart_charging(
    devices: Sequence[DeviceSpec] = (PIXEL_3A, THINKPAD_X1_CARBON_G3),
    n_days: int = 30,
    seed: int = 2021,
    trace: Optional[GridTrace] = None,
) -> Figure4Data:
    """Run the April-2021-style smart-charging study for the given devices."""
    month = trace or CaisoLikeTraceGenerator(seed=seed).generate_days(n_days)
    studies = {
        device.name: smart_charging_savings(device, month) for device in devices
    }
    return Figure4Data(trace=month, studies=studies)


# ---------------------------------------------------------------------------
# Figure 5 — cluster-level CCI
# ---------------------------------------------------------------------------


def fig5_cluster_cci(
    benchmarks: Sequence[MicroBenchmark] = FIGURE2_BENCHMARKS,
    regimes: Sequence[str] = ("california", "solar"),
    months: Optional[Sequence[float]] = None,
) -> Dict[Tuple[str, str], LifetimeSweep]:
    """Cluster-level CCI curves for every (benchmark, power regime) panel."""
    grid = np.asarray(months if months is not None else default_lifetimes())
    panels: Dict[Tuple[str, str], LifetimeSweep] = {}
    for benchmark in benchmarks:
        for regime in regimes:
            designs = paper_cloudlets(benchmark, regime=regime)
            series = {
                label: design.cci_series(benchmark, grid)
                for label, design in designs.items()
            }
            panels[(benchmark.name, regime)] = LifetimeSweep(
                months=grid,
                series=series,
                metric_unit=f"gCO2e/{benchmark.work_unit}",
            )
    return panels


# ---------------------------------------------------------------------------
# Figure 6 — energy-mix impact
# ---------------------------------------------------------------------------


def fig6_energy_mix(
    benchmark: MicroBenchmark = SGEMM,
    months: Optional[Sequence[float]] = None,
) -> LifetimeSweep:
    """CCI of the Pixel 3A and the PowerEdge under different energy mixes."""
    grid = np.asarray(months if months is not None else default_lifetimes())
    ca = california()
    series: Dict[str, np.ndarray] = {}

    pixel_configs = {
        "[Pixel] California": DeviceCarbonModel(PIXEL_3A, energy_mix=ca, reused=True),
        "[Pixel] CA + smart charging": DeviceCarbonModel(
            PIXEL_3A, energy_mix=ca, reused=True, smart_charging=True,
            include_battery_replacement=True,
        ),
        "[Pixel] 24/7 solar": DeviceCarbonModel(
            PIXEL_3A, energy_mix=solar_24_7(), reused=True
        ),
        "[Pixel] zero carbon": DeviceCarbonModel(
            PIXEL_3A, energy_mix=zero_carbon(), reused=True
        ),
    }
    server_configs = {
        "[Server] California": DeviceCarbonModel(
            POWEREDGE_R740, energy_mix=ca, reused=False
        ),
        "[Server] 24/7 solar": DeviceCarbonModel(
            POWEREDGE_R740, energy_mix=solar_24_7(), reused=False
        ),
        "[Server] zero carbon": DeviceCarbonModel(
            POWEREDGE_R740, energy_mix=zero_carbon(), reused=False
        ),
    }
    for label, model in {**pixel_configs, **server_configs}.items():
        series[label] = model.cci_series(benchmark, grid)
    return LifetimeSweep(
        months=grid, series=series, metric_unit=f"gCO2e/{benchmark.work_unit}"
    )


# ---------------------------------------------------------------------------
# Figure 7 — DeathStarBench latency versus throughput
# ---------------------------------------------------------------------------

#: The three workloads plotted in Figure 7.
FIGURE7_WORKLOADS: Dict[str, Tuple[str, Mapping[str, float]]] = {
    "SocialNetwork-Write": ("SocialNetwork", {COMPOSE_POST: 1.0}),
    "SocialNetwork-Read": ("SocialNetwork", {READ_USER_TIMELINE: 1.0}),
    "HotelReservation": ("HotelReservation", dict(HOTEL_MIXED_WORKLOAD)),
}

#: Default offered-load grid per workload (requests/second).
FIGURE7_DEFAULT_QPS: Dict[str, Tuple[float, ...]] = {
    "SocialNetwork-Write": (500, 1000, 1500, 2000, 2500, 3000),
    "SocialNetwork-Read": (500, 1500, 2500, 3500, 4000, 4500),
    "HotelReservation": (500, 1500, 2500, 3500, 4000, 4500),
}


def _build_apps() -> Dict[str, object]:
    return {"SocialNetwork": social_network(), "HotelReservation": hotel_reservation()}


def fig7_deathstarbench(
    clusters: Optional[Sequence[ServingCluster]] = None,
    workloads: Optional[Mapping[str, Tuple[str, Mapping[str, float]]]] = None,
    qps_grid: Optional[Mapping[str, Sequence[float]]] = None,
    duration_s: float = 2.0,
    warmup_s: float = 0.4,
    seed: int = 7,
) -> Dict[Tuple[str, str], SweepResult]:
    """Latency-versus-throughput sweeps for every (workload, cluster) pair.

    By default the phone cloudlet and the c5.9xlarge are swept (the paper also
    shows c5.4xlarge and c5.12xlarge; pass them via ``clusters`` for the full
    figure).  Durations are deliberately short so the whole figure regenerates
    in minutes; increase ``duration_s`` for tighter percentiles.
    """
    apps = _build_apps()
    cluster_list = list(clusters) if clusters is not None else [
        pixel_cloudlet(),
        ec2_instance(C5_9XLARGE),
    ]
    workload_map = dict(workloads) if workloads is not None else dict(FIGURE7_WORKLOADS)
    qps_map = dict(qps_grid) if qps_grid is not None else dict(FIGURE7_DEFAULT_QPS)

    results: Dict[Tuple[str, str], SweepResult] = {}
    for workload_name, (app_name, mix) in workload_map.items():
        app = apps[app_name]
        for cluster in cluster_list:
            sweep = latency_throughput_sweep(
                cluster,
                app,
                mix,
                qps_values=qps_map[workload_name],
                workload_name=workload_name,
                duration_s=duration_s,
                warmup_s=warmup_s,
                seed=seed,
            )
            results[(workload_name, cluster.name)] = sweep
    return results


# ---------------------------------------------------------------------------
# Figure 8 — per-phone CPU utilisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure8Data:
    """Per-phone utilisation across the read phase and the write phase."""

    read_qps: float
    write_qps: float
    read_utilization: Mapping[str, float]
    write_utilization: Mapping[str, float]
    placement: Mapping[str, Tuple[str, ...]]

    def lightly_used_fraction(self, threshold: float = 0.25) -> float:
        """Fraction of phones whose utilisation stays below ``threshold`` in both phases."""
        names = list(self.read_utilization)
        lightly = [
            name
            for name in names
            if self.read_utilization[name] < threshold
            and self.write_utilization[name] < threshold
        ]
        return len(lightly) / len(names)


def fig8_cpu_utilization(
    read_qps: float = 3_000.0,
    write_qps: float = 3_000.0,
    duration_s: float = 3.0,
    warmup_s: float = 0.5,
    seed: int = 8,
) -> Figure8Data:
    """Per-phone CPU utilisation while serving the SocialNetwork workloads.

    The paper's Figure 8 runs the read workload at 3,000 QPS and the write
    workload at 3,500 QPS with idle gaps in between; here each phase is
    simulated separately and summarised by its mean per-phone utilisation.
    The default write rate is kept at the cloudlet's sustainable 3,000 QPS so
    the reported utilisations describe a stable system.
    """
    app = social_network()
    cluster = pixel_cloudlet()
    placement = cluster.default_placement(app)
    read = cluster.run(
        app, {READ_USER_TIMELINE: 1.0}, qps=read_qps, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed,
    )
    write = cluster.run(
        app, {COMPOSE_POST: 1.0}, qps=write_qps, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed + 1,
    )
    return Figure8Data(
        read_qps=read_qps,
        write_qps=write_qps,
        read_utilization=read.mean_node_utilization(),
        write_utilization=write.mean_node_utilization(),
        placement={
            node: placement.services_on(node) for node in cluster.node_names
        },
    )


# ---------------------------------------------------------------------------
# Figure 9 — carbon per request
# ---------------------------------------------------------------------------

#: Usable throughputs (requests/second) used by the Figure 9 carbon analysis.
#: They follow the paper's methodology — the maximum throughput before the
#: latency curves shoot up in Figure 7 — and can be re-measured with
#: :func:`fig7_deathstarbench`.
FIGURE9_DEFAULT_THROUGHPUTS: Dict[str, Dict[str, float]] = {
    "SocialNetwork-Write": {"phones": 3_000.0, "c5.9xlarge": 2_000.0},
    "SocialNetwork-Read": {"phones": 3_500.0, "c5.9xlarge": 4_500.0},
    "HotelReservation": {"phones": 4_000.0, "c5.9xlarge": 4_000.0},
}

#: Power draw of one Pixel 3A while hosting the DeathStarBench services, as
#: measured by the paper (Section 6.3).
PHONE_SERVING_POWER_W = 1.7
#: Power draw the paper assumes for the c5.9xlarge (10 % utilisation estimate).
C5_9XLARGE_SERVING_POWER_W = 140.7


@dataclass(frozen=True)
class Figure9Data:
    """Carbon-per-request curves for the cloudlet and the EC2 baseline."""

    sweeps: Mapping[str, LifetimeSweep]
    throughputs: Mapping[str, Mapping[str, float]]

    def improvement_at(self, workload: str, months: float = 36.0) -> float:
        """How many times more carbon-efficient the phones are at ``months``."""
        sweep = self.sweeps[workload]
        return sweep.at("c5.9xlarge", months) / sweep.at("phones", months)


def _phone_cloudlet_carbon_g(
    lifetime_months: float,
    n_phones: int,
    energy_mix: EnergyMix,
) -> float:
    """Total carbon of the ten-phone serving cloudlet over a lifetime."""
    power = n_phones * PHONE_SERVING_POWER_W + FAN_POWER_W
    duration_s = units.months_to_seconds(lifetime_months)
    operational = operational_carbon_g(
        power, duration_s, energy_mix.mean_intensity_g_per_kwh
    )
    battery_kg = n_phones * replacement_carbon_kg(
        PIXEL_3A.battery, PHONE_SERVING_POWER_W, lifetime_months
    )
    embodied = units.kg_to_grams(battery_kg + FAN_EMBODIED_KG)
    return operational + embodied


def _ec2_carbon_g(lifetime_months: float, energy_mix: EnergyMix) -> float:
    """Total carbon attributed to a dedicated c5.9xlarge over a lifetime."""
    duration_s = units.months_to_seconds(lifetime_months)
    operational = operational_carbon_g(
        C5_9XLARGE_SERVING_POWER_W, duration_s, energy_mix.mean_intensity_g_per_kwh
    )
    embodied = units.kg_to_grams(C5_9XLARGE.embodied_carbon_kgco2e)
    return operational + embodied


def fig9_request_cci(
    months: Optional[Sequence[float]] = None,
    throughputs: Optional[Mapping[str, Mapping[str, float]]] = None,
    n_phones: int = 10,
    energy_mix: Optional[EnergyMix] = None,
) -> Figure9Data:
    """Carbon per served request over the deployment lifetime (Figure 9)."""
    grid = np.asarray(months if months is not None else default_lifetimes())
    rates = dict(throughputs) if throughputs is not None else dict(FIGURE9_DEFAULT_THROUGHPUTS)
    mix = energy_mix or california()

    sweeps: Dict[str, LifetimeSweep] = {}
    for workload, platform_rates in rates.items():
        series: Dict[str, np.ndarray] = {}
        phone_values = []
        ec2_values = []
        for m in grid:
            duration_s = units.months_to_seconds(float(m))
            phone_requests = platform_rates["phones"] * duration_s
            ec2_requests = platform_rates["c5.9xlarge"] * duration_s
            phone_values.append(
                computational_carbon_intensity(
                    _phone_cloudlet_carbon_g(float(m), n_phones, mix), phone_requests
                )
            )
            ec2_values.append(
                computational_carbon_intensity(_ec2_carbon_g(float(m), mix), ec2_requests)
            )
        series["phones"] = np.array(phone_values)
        series["c5.9xlarge"] = np.array(ec2_values)
        sweeps[workload] = LifetimeSweep(
            months=grid, series=series, metric_unit="gCO2e/request"
        )
    return Figure9Data(sweeps=sweeps, throughputs=rates)


# ---------------------------------------------------------------------------
# Figure 10 (extension) — fleet orchestration across geo-distributed sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure10Data:
    """Policy comparison for a multi-site fleet over months of virtual time.

    ``reports`` maps policy name to its :class:`~repro.fleet.reporting.FleetReport`;
    the series accessors expose the daily running-CCI and availability curves
    the fleet figure plots.
    """

    reports: Mapping[str, "FleetReport"]  # noqa: F821 - imported lazily below
    n_days: int
    n_devices_per_site: int

    def policies(self) -> Tuple[str, ...]:
        """The compared policy names."""
        return tuple(self.reports)

    def cci(self, policy: str) -> float:
        """Final fleet CCI (g CO2e / request) under ``policy``."""
        return self.reports[policy].fleet_cci_g_per_request()

    def savings_vs(self, policy: str, baseline: str = "round-robin") -> float:
        """Fractional operational-carbon savings of ``policy`` over ``baseline``."""
        for name in (policy, baseline):
            if name not in self.reports:
                available = ", ".join(sorted(self.reports))
                raise ValueError(
                    f"policy {name!r} was not simulated; available: {available}"
                )
        base = self.reports[baseline].total_operational_carbon_g
        ours = self.reports[policy].total_operational_carbon_g
        return 1.0 - ours / base

    def daily_cci_curves(self) -> Dict[str, np.ndarray]:
        """Running fleet CCI per day for every policy."""
        return {name: report.daily_cci_series() for name, report in self.reports.items()}


def fig10_fleet_orchestration(
    n_devices_per_site: int = 500,
    n_days: int = 180,
    demand_fraction: float = 0.9,
    seed: int = 0,
    policy_names: Optional[Sequence[str]] = None,
) -> Figure10Data:
    """Compare routing policies on the canonical two-site asymmetric fleet.

    ``demand_fraction`` scales mean demand relative to a single site's
    nominal capacity, so the clean site can absorb most — but not all — of
    the load and the routing policy has a real decision to make.

    Built on the declarative scenario layer: the ``two-site-asymmetric``
    preset is re-parameterised per policy and run through
    :class:`~repro.scenarios.runner.ScenarioRunner`, so the figure and any
    user scenario share one resolution path.
    """
    from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S
    from repro.scenarios import ScenarioRunner, get_scenario

    names = list(policy_names) if policy_names is not None else [
        "round-robin",
        "greedy-lowest-intensity",
        "marginal-cci",
    ]
    base = get_scenario("two-site-asymmetric").with_overrides(
        {
            "duration_days": n_days,
            "seed": seed,
            "sites.0.devices.count": n_devices_per_site,
            "sites.1.devices.count": n_devices_per_site,
            # The paper-style convention: demand relative to ONE site's
            # nominal capacity, so the clean site saturates under load.
            "demand.mean_rps": demand_fraction
            * n_devices_per_site
            * DEFAULT_REQUESTS_PER_DEVICE_S,
            # The figure compares fluid-path carbon only; skip the latency probe.
            "routing.latency_probe_s": 0,
        }
    )
    reports = {}
    for name in names:
        spec = base.with_overrides({"routing.policy": name})
        reports[name] = ScenarioRunner(spec).run().report
    return Figure10Data(
        reports=reports, n_days=n_days, n_devices_per_site=n_devices_per_site
    )


# ---------------------------------------------------------------------------
# Figure 11 (extension) — coupled energy dispatch (UPS-as-carbon-buffer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure11Data:
    """Greedy routing with and without the coupled battery-dispatch ledger.

    ``results`` maps coupling mode (``"dispatch"`` / ``"none"``) to its
    :class:`~repro.scenarios.runner.ScenarioResult` on the ``carbon-buffer``
    scenario — identical fleets, demand, and routing, so the only difference
    is whether clean hours charge batteries that dirty hours drain.
    """

    results: Mapping[str, "ScenarioResult"]  # noqa: F821 - imported lazily below
    n_days: int

    def operational_carbon_kg(self, mode: str) -> float:
        """Operational carbon (kg) under the given coupling mode."""
        return self.results[mode].report.total_operational_carbon_g / 1_000.0

    def cci(self, mode: str) -> float:
        """Fleet CCI (g CO2e / request) under the given coupling mode."""
        return self.results[mode].cci_g_per_request

    def carbon_avoided_kg(self) -> float:
        """Realised carbon the dispatch ledger avoided (kg)."""
        return self.results["dispatch"].report.carbon_avoided_g() / 1_000.0

    def realised_savings(self) -> Mapping[str, float]:
        """Per-site realised fractional savings from the dispatched ledger."""
        return self.results["dispatch"].charging_savings


def _carbon_buffer_base(name: str, n_days: int, n_devices_per_site: int, seed: int):
    """A carbon-buffer-family preset re-sized for a figure run."""
    from repro.scenarios import get_scenario

    return get_scenario(name).with_overrides(
        {
            "duration_days": n_days,
            "seed": seed,
            "sites.0.devices.count": n_devices_per_site,
            "sites.1.devices.count": n_devices_per_site,
            "routing.latency_probe_s": 0,
        }
    )


def fig11_carbon_buffer(
    n_days: int = 30,
    n_devices_per_site: int = 150,
    seed: int = 0,
) -> Figure11Data:
    """Run the ``carbon-buffer`` scenario with and without the dispatch ledger.

    Both runs share seeds, fleets, and the greedy routing policy; the
    comparison isolates the realised UPS-as-carbon-buffer win — the
    difference between serving dirty hours from batteries filled at clean
    hours and serving every hour straight off the grid.
    """
    from repro.scenarios import ScenarioRunner

    base = _carbon_buffer_base("carbon-buffer", n_days, n_devices_per_site, seed)
    decoupled = base.with_overrides({"charging.coupling": "none"})
    return Figure11Data(
        results={
            "dispatch": ScenarioRunner(base).run(),
            "none": ScenarioRunner(decoupled).run(),
        },
        n_days=n_days,
    )


# ---------------------------------------------------------------------------
# Figure 12 (extension) — forecast lookahead dispatch and regret
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure12Data:
    """Forecast-quality sweep on the ``forecast-buffer`` scenario.

    ``noisy`` maps noise sigma to the :class:`~repro.scenarios.runner.ScenarioResult`
    of the lookahead dispatch under that forecast (``0.0`` is the perfect
    oracle); ``persistence`` is the yesterday-repeats forecaster and
    ``heuristic`` the non-forecast previous-day percentile dispatch — every
    run on identical fleets, demand, and routing, so differences isolate
    forecast skill.
    """

    noisy: Mapping[float, "ScenarioResult"]  # noqa: F821 - imported lazily below
    persistence: "ScenarioResult"  # noqa: F821
    heuristic: "ScenarioResult"  # noqa: F821
    n_days: int

    def sigmas(self) -> Tuple[float, ...]:
        """The swept noise sigmas, ascending."""
        return tuple(sorted(self.noisy))

    def carbon_avoided_kg(self, sigma: float) -> float:
        """Realised carbon avoided (kg) at one noise sigma."""
        return self.noisy[sigma].carbon_avoided_g / 1_000.0

    def regret_kg(self, sigma: float) -> float:
        """Forecast regret (kg) at one noise sigma."""
        return self.noisy[sigma].regret_g / 1_000.0

    def heuristic_avoided_kg(self) -> float:
        """Carbon avoided (kg) by the previous-day percentile heuristic."""
        return self.heuristic.carbon_avoided_g / 1_000.0

    def persistence_avoided_kg(self) -> float:
        """Carbon avoided (kg) under the persistence forecast."""
        return self.persistence.carbon_avoided_g / 1_000.0

    def persistence_regret_kg(self) -> float:
        """Regret (kg) of the persistence forecast vs the hindsight plan."""
        return self.persistence.regret_g / 1_000.0


def fig12_forecast_regret(
    sigmas: Sequence[float] = (0.0, 0.2, 0.4, 0.8),
    n_days: int = 14,
    n_devices_per_site: int = 50,
    seed: int = 0,
) -> Figure12Data:
    """Sweep forecast quality on the ``forecast-buffer`` scenario.

    One run per noise sigma (``0.0`` resolves to the perfect oracle — the
    hindsight bound itself, so its regret is exactly zero) plus the
    persistence forecaster and the non-forecast percentile heuristic.
    Savings degrade smoothly from the oracle toward persistence as sigma
    grows, and regret — hindsight-optimal minus realised carbon avoided —
    grows with it.
    """
    from repro.scenarios import ScenarioRunner

    bad = [sigma for sigma in sigmas if sigma < 0]
    if bad:
        raise ValueError(f"noise sigma must be non-negative, got {bad[0]}")
    base = _carbon_buffer_base("forecast-buffer", n_days, n_devices_per_site, seed)

    def run_cell(overrides):
        return ScenarioRunner(base.with_overrides(overrides)).run()

    noisy = {
        float(sigma): run_cell(
            {"forecast.model": "perfect"}
            if sigma == 0
            else {"forecast.model": "noisy", "forecast.noise_sigma": sigma}
        )
        for sigma in sigmas
    }
    return Figure12Data(
        noisy=noisy,
        persistence=run_cell({"forecast.model": "persistence"}),
        heuristic=run_cell({"forecast.model": "none"}),
        n_days=n_days,
    )
