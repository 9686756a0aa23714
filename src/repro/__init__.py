"""repro — a reproduction of "Junkyard Computing" (ASPLOS 2023).

The library models the full pipeline the paper builds:

* :mod:`repro.core` — the Computational Carbon Intensity (CCI) metric, carbon
  accounting (embodied / operational / networking), the reuse factor, and
  lifetime/crossover analysis;
* :mod:`repro.devices` — the device catalog (servers, laptops, phones, EC2
  instances) with measured power curves, Geekbench scores, batteries and
  embodied carbon;
* :mod:`repro.grid` — energy sources, a synthetic CAISO-like carbon-intensity
  trace generator, and energy-mix scenarios;
* :mod:`repro.charging` — carbon-aware ("smart") charging policies and
  battery-level simulation;
* :mod:`repro.thermal` — the phones-in-a-box thermal experiment and cloudlet
  cooling sizing;
* :mod:`repro.simulation` / :mod:`repro.microservices` — a discrete-event
  microservice serving simulator (request types compiled to flat programs,
  run on one event loop over FIFO cores, I/O pools and a shared network,
  ties broken by ``(time, seq)``) with DeathStarBench-style applications,
  Docker-Swarm-like placement, and the phone-cloudlet / EC2 deployments;
* :mod:`repro.cluster` — cloudlet and datacenter-scale carbon designs
  (sizing, peripherals, topologies, PUE);
* :mod:`repro.fleet` — device-churn lifecycle (intake, aging, failure,
  replacement) and carbon-aware request routing across geo-distributed
  sites with different grid mixes;
* :mod:`repro.forecast` — carbon-intensity forecast models (perfect /
  persistence / noisy oracle) and the greedy lookahead charge/discharge
  planner behind the forecast-aware dispatch and its regret accounting;
* :mod:`repro.economics` — ownership-versus-cloud-rental cost models with
  churn-driven fleet economics;
* :mod:`repro.scenarios` — the declarative experiment layer: serializable
  :class:`ScenarioSpec` trees, a :class:`ScenarioRunner` resolving them
  against every subsystem, and a named-preset registry;
* :mod:`repro.telemetry` — zero-dependency observability: nested wall-clock
  spans, simulation counters, run manifests, a JSONL sink, and the
  profiling CLI — all guaranteed never to perturb a simulation;
* :mod:`repro.analysis` — per-figure and per-table data builders plus text
  reports.

Quick start::

    from repro import DeviceCarbonModel, PIXEL_3A, POWEREDGE_R740, SGEMM

    phone = DeviceCarbonModel(PIXEL_3A, reused=True)
    server = DeviceCarbonModel(POWEREDGE_R740, reused=False)
    print(phone.cci(SGEMM, 36), server.cci(SGEMM, 36))

Scenario quick start::

    from repro import get_scenario, run_scenario

    spec = get_scenario("two-site-asymmetric").with_overrides({"duration_days": 7})
    print(run_scenario(spec).summary_dict())
"""

from repro.core import (
    CarbonComponents,
    CarbonLedger,
    DeviceCarbonModel,
    LifetimeSweep,
    computational_carbon_intensity,
    crossover_month,
    default_lifetimes,
    device_reuse_factor,
    reuse_factor,
    second_life_cci,
)
from repro.devices import (
    DIJKSTRA,
    LIGHT_MEDIUM,
    MEMORY_COPY,
    NEXUS_4,
    PDF_RENDER,
    PIXEL_3A,
    POWEREDGE_R740,
    PROLIANT_DL380_G6,
    SGEMM,
    THINKPAD_X1_CARBON_G3,
    DeviceSpec,
    get_device,
)
from repro.fleet import (
    ChurnTable,
    DeviceCohort,
    DiurnalDemand,
    FleetReport,
    FleetSimulation,
    FleetSite,
    policy_by_name,
)
from repro.grid import CaisoLikeTraceGenerator, EnergyMix, GridTrace, california, solar_24_7, zero_carbon
from repro.scenarios import (
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioValidationError,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # core
    "computational_carbon_intensity",
    "DeviceCarbonModel",
    "CarbonComponents",
    "CarbonLedger",
    "LifetimeSweep",
    "default_lifetimes",
    "crossover_month",
    "reuse_factor",
    "device_reuse_factor",
    "second_life_cci",
    # devices
    "DeviceSpec",
    "get_device",
    "POWEREDGE_R740",
    "PROLIANT_DL380_G6",
    "THINKPAD_X1_CARBON_G3",
    "PIXEL_3A",
    "NEXUS_4",
    "SGEMM",
    "PDF_RENDER",
    "DIJKSTRA",
    "MEMORY_COPY",
    "LIGHT_MEDIUM",
    # fleet
    "ChurnTable",
    "DeviceCohort",
    "FleetSite",
    "DiurnalDemand",
    "FleetSimulation",
    "FleetReport",
    "policy_by_name",
    # scenarios
    "ScenarioSpec",
    "ScenarioRunner",
    "ScenarioResult",
    "ScenarioValidationError",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "run_scenario",
    # telemetry
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    # grid
    "GridTrace",
    "CaisoLikeTraceGenerator",
    "EnergyMix",
    "california",
    "solar_24_7",
    "zero_carbon",
]
