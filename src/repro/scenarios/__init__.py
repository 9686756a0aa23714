"""Declarative scenarios: one spec/runner/registry for every experiment.

Where the rest of the library exposes imperative building blocks (devices,
grids, fleets, policies), this package turns a whole experiment into *data*:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, a nested tree of
  frozen dataclasses (device mix, grid-trace source, churn, routing,
  charging, economics, demand, horizon, seed) with lossless
  dict/JSON round-trips, field-naming validation errors, and dotted-path
  overrides;
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`, which resolves a
  spec against the devices/grid/fleet/economics subsystems and returns a
  unified :class:`ScenarioResult` (fleet report + carbon + $/request +
  latency + charging headroom);
* :mod:`repro.scenarios.sweep` — cartesian sweeps: one spec, a grid of
  dotted-path override lists, a CCI / $-per-request table per cell;
* :mod:`repro.scenarios.registry` — named presets (``paper-baseline``,
  ``two-site-asymmetric``, ``hydro-vs-ercot``, ``heterogeneous-cohorts``,
  ``caiso-csv-sample``, ``carbon-buffer``, ``forecast-buffer``) plus
  :func:`register_scenario` for user extensions.

Quick start::

    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario("two-site-asymmetric").with_overrides(
        {"duration_days": 7, "routing.policy": "greedy-lowest-intensity"}
    )
    result = run_scenario(spec)
    print(result.cci_g_per_request, result.usd_per_request)
"""

from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.sweep import (
    SweepCell,
    SweepResult,
    parse_sweep_override,
    sweep_scenario,
)
from repro.scenarios.spec import (
    CHARGING_COUPLINGS,
    CHARGING_POLICIES,
    FORECAST_MODEL_NAMES,
    LOAD_PROFILE_REGISTRY,
    LOAD_PROFILES,
    SERVICE_DISTRIBUTIONS,
    TRACE_KINDS,
    ChargingSpec,
    ChurnSpec,
    DemandSpec,
    DeviceMixSpec,
    EconomicsSpec,
    ExecutionSpec,
    ForecastSpec,
    RoutingSpec,
    ScenarioSpec,
    ScenarioValidationError,
    SiteSpec,
    TraceSpec,
    parse_override,
)

__all__ = [
    # spec
    "ScenarioSpec",
    "SiteSpec",
    "TraceSpec",
    "DeviceMixSpec",
    "ChurnSpec",
    "DemandSpec",
    "RoutingSpec",
    "ChargingSpec",
    "ForecastSpec",
    "EconomicsSpec",
    "ExecutionSpec",
    "ScenarioValidationError",
    "parse_override",
    "TRACE_KINDS",
    "CHARGING_POLICIES",
    "CHARGING_COUPLINGS",
    "FORECAST_MODEL_NAMES",
    "SERVICE_DISTRIBUTIONS",
    "LOAD_PROFILES",
    "LOAD_PROFILE_REGISTRY",
    # runner
    "ScenarioRunner",
    "ScenarioResult",
    "run_scenario",
    # sweep
    "sweep_scenario",
    "SweepResult",
    "SweepCell",
    "parse_sweep_override",
    # registry
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]
