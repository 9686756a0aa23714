"""The benchmark's four workloads: inputs from a seed, one call, checked outputs.

Every workload goes through the entry points users call:
``ScenarioRunner(spec).run()`` for the three scenario workloads and
``ServingCluster.run`` for the DeathStarBench cloudlet.  The program only
ever sees the generated spec (or app, cluster and points); the seed is the
benchmark's input.

Checks (each raises :class:`CheckFailed`):

* at a workload's recorded seed, the scenario outputs in
  :data:`EXACT_KEYS` must equal ``reference.json`` bit for bit;
* at any other seed they must stay within :data:`SEED_TOLERANCE` of it, a
  sanity band that a broken model falls outside of;
* probe p50/p99 and every DeathStarBench point's counts and p50/p90 must be
  within :data:`TOLERANCE` of the reference at every seed;
* forecast regret must be finite (its baseline is due to change, so it has
  no reference value).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Tuple

from repro.microservices import (
    COMPOSE_POST,
    READ_USER_TIMELINE,
    pixel_cloudlet,
    social_network,
)
from repro.scenarios import (
    ChargingSpec,
    ChurnSpec,
    DemandSpec,
    DeviceMixSpec,
    ForecastSpec,
    RoutingSpec,
    ScenarioRunner,
    ScenarioSpec,
    SiteSpec,
    TraceSpec,
    get_scenario,
)

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _handle:
    #: Outputs recorded at each workload's recorded seed.
    REFERENCE: Dict[str, Dict[str, float]] = json.load(_handle)

#: Scenario outputs that are bitwise-locked at the recorded seed.
EXACT_KEYS = (
    "cci_g_per_request",
    "served_requests",
    "carbon_avoided_g",
    "failures",
    "final_active_devices",
)

#: Relative band for :data:`EXACT_KEYS` at seeds other than the recorded
#: one, at least 1.6 times the largest deviation seen over seeds 0-39
#: (``failures`` is a Poisson count near 14 on ``scenario-probe``).
SEED_TOLERANCE = {
    "cci_g_per_request": 0.22,
    "served_requests": 0.01,
    "carbon_avoided_g": 1.00,
    "failures": 1.20,
    "final_active_devices": 0.05,
}

#: Relative tolerance for DES outputs (probe and DeathStarBench) at any
#: seed, keyed by the output name after its ``write.``/``read.`` prefix:
#: at least 1.7 times the largest deviation seen over seeds 0-39 (probe)
#: or 0-29 (DeathStarBench).  The saturated read point's percentiles move
#: most.
TOLERANCE = {
    "probe_p50_ms": 0.05,
    "probe_p99_ms": 0.12,
    "completed": 0.25,
    "offered": 0.20,
    "p50_ms": 0.60,
    "p90_ms": 0.60,
}


class CheckFailed(Exception):
    """A workload's output disagrees with the reference."""


def _within(name: str, value: float, reference: float, tolerance: float) -> None:
    if not math.isfinite(value) or abs(value - reference) > tolerance * abs(reference):
        raise CheckFailed(
            f"{name} = {value!r}, reference {reference!r} (tolerance {tolerance:.0%})"
        )


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``build(seed)`` makes the inputs; ``call(inputs, tele)`` runs them once
    through the program, recording spans into ``tele`` when it is enabled;
    ``outputs(result)`` reduces a result to the flat dict that is checked.
    ``stores`` marks workloads whose result also round-trips the store.
    """

    name: str
    recorded_seed: int
    build: Callable[[int], Any]
    call: Callable[[Any, Any], Any]
    outputs: Callable[[Any], Dict[str, float]]
    stores: bool = False

    def check(self, outputs: Dict[str, float], seed: int) -> None:
        """Raise :class:`CheckFailed` unless ``outputs`` match the reference."""
        reference = REFERENCE[self.name]
        if set(outputs) != set(reference):
            raise CheckFailed(
                f"output keys {sorted(outputs)} differ from {sorted(reference)}"
            )
        for key, value in outputs.items():
            if key == "raw_regret_g":
                if not math.isfinite(value):
                    raise CheckFailed(f"raw_regret_g = {value!r} is not finite")
            elif key in EXACT_KEYS:
                if seed == self.recorded_seed:
                    if value != reference[key]:
                        raise CheckFailed(
                            f"{key} = {value!r}, recorded {reference[key]!r}"
                        )
                else:
                    _within(key, value, reference[key], SEED_TOLERANCE[key])
            else:
                _within(key, value, reference[key], TOLERANCE[key.rsplit(".", 1)[-1]])


# ---------------------------------------------------------------------------
# Scenario workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioInputs:
    """A validated spec plus its audited twin for traced runs."""

    spec: ScenarioSpec
    audited: ScenarioSpec
    sha256: str


def _scenario_inputs(spec: ScenarioSpec) -> ScenarioInputs:
    audited = replace(spec, execution=replace(spec.execution, audit=True))
    return ScenarioInputs(spec=spec, audited=audited, sha256=spec.sha256())


def run_scenario_inputs(inputs: ScenarioInputs, tele) -> Any:
    """``ScenarioRunner(spec).run()``; traced runs pass telemetry and audit."""
    if not tele.enabled:
        return ScenarioRunner(inputs.spec).run()
    runner = ScenarioRunner(inputs.audited, telemetry=tele)
    result = runner.run()
    if runner.last_audit is None or not runner.last_audit.ok:
        raise CheckFailed(
            "audit: " + (runner.last_audit.render() if runner.last_audit else "did not run")
        )
    return result


def scenario_outputs(result) -> Dict[str, float]:
    report = result.report
    outputs = {
        "cci_g_per_request": result.cci_g_per_request,
        "served_requests": report.total_served_requests,
        "carbon_avoided_g": result.carbon_avoided_g,
        "failures": int(report.failures.sum()),
        "final_active_devices": int(report.active_devices[-1].sum()),
    }
    if result.latency is not None:
        outputs["probe_p50_ms"] = result.latency.median_ms
        outputs["probe_p99_ms"] = result.latency.p99_ms
    if result.hindsight_carbon_avoided_g is not None:
        outputs["raw_regret_g"] = result.raw_regret_g
    return outputs


def probe_spec(seed: int) -> ScenarioSpec:
    """2 x 1,000 Pixel 3A, 7-day traces, lognormal service, 30 days, a 0.25 s
    DES probe."""
    return get_scenario("two-site-asymmetric").with_overrides(
        {
            "sites.0.devices.count": 1000,
            "sites.1.devices.count": 1000,
            "sites.0.trace.n_days": 7,
            "sites.1.trace.n_days": 7,
            "demand.service_distribution": "lognormal",
            "routing.latency_probe_s": 0.25,
            "seed": seed,
        }
    )


def fleet_spec(seed: int) -> ScenarioSpec:
    """2 x 500,000 Pixel 3A with bucket churn and dispatch for 732 days."""
    return get_scenario("carbon-buffer").with_overrides(
        {
            "sites.0.devices.count": 500_000,
            "sites.1.devices.count": 500_000,
            "churn.sampler": "bucket",
            "duration_days": 732,
            "routing.latency_probe_s": 0.0,
            "seed": seed,
        }
    )


#: Regions the 64 forecast sites cycle through.
FORECAST_REGIONS = ("caiso-like", "ercot-like", "hydro-heavy")


def sites_spec(seed: int) -> ScenarioSpec:
    """64 sites x 2,000 Pixel 3A on 1-day traces under noisy-forecast
    dispatch for 8 days."""
    sites = tuple(
        SiteSpec(
            name=f"site-{index:02d}",
            trace=TraceSpec(
                kind="regional",
                region=FORECAST_REGIONS[index % len(FORECAST_REGIONS)],
                n_days=1,
            ),
            devices=DeviceMixSpec(device="Pixel 3A", count=2000),
            churn=ChurnSpec(sampler="bucket"),
        )
        for index in range(64)
    )
    return ScenarioSpec(
        name="sites-64-forecast",
        sites=sites,
        routing=RoutingSpec(policy="greedy-lowest-intensity", latency_probe_s=0.0),
        demand=DemandSpec(fraction_of_capacity=0.5),
        charging=ChargingSpec(policy="smart", coupling="dispatch"),
        forecast=ForecastSpec(model="noisy", noise_sigma=0.3),
        duration_days=8,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# DeathStarBench cloudlet
# ---------------------------------------------------------------------------

#: Figure 7 points: (label, request type, offered QPS).
SERVING_POINTS = (
    ("write", COMPOSE_POST, 2000.0),
    ("read", READ_USER_TIMELINE, 4000.0),
)
SERVING_DURATION_S = 0.15
SERVING_WARMUP_S = 0.03


@dataclass(frozen=True)
class ServingInputs:
    app: Any
    cluster: Any
    seed: int


def serving_inputs(seed: int) -> ServingInputs:
    return ServingInputs(app=social_network(), cluster=pixel_cloudlet(), seed=seed)


def run_serving(inputs: ServingInputs, tele) -> Tuple[Tuple[str, Any], ...]:
    """One ``ServingCluster.run`` per point, each inside a ``serve`` span."""
    results = []
    for offset, (label, request_type, qps) in enumerate(SERVING_POINTS):
        with tele.span("serve"):
            result = inputs.cluster.run(
                inputs.app,
                {request_type: 1.0},
                qps=qps,
                duration_s=SERVING_DURATION_S,
                warmup_s=SERVING_WARMUP_S,
                seed=inputs.seed + offset,
            )
        results.append((label, result))
    return tuple(results)


def serving_outputs(results) -> Dict[str, float]:
    outputs: Dict[str, float] = {}
    for label, result in results:
        outputs[f"{label}.completed"] = result.completed_requests
        outputs[f"{label}.offered"] = result.total_offered
        outputs[f"{label}.p50_ms"] = result.median_ms()
        outputs[f"{label}.p90_ms"] = result.tail_ms()
    return outputs


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="scenario-probe",
            recorded_seed=0,
            build=lambda seed: _scenario_inputs(probe_spec(seed)),
            call=run_scenario_inputs,
            outputs=scenario_outputs,
        ),
        Workload(
            name="fleet-1m",
            recorded_seed=0,
            build=lambda seed: _scenario_inputs(fleet_spec(seed)),
            call=run_scenario_inputs,
            outputs=scenario_outputs,
            stores=True,
        ),
        Workload(
            name="sites-64-forecast",
            recorded_seed=0,
            build=lambda seed: _scenario_inputs(sites_spec(seed)),
            call=run_scenario_inputs,
            outputs=scenario_outputs,
            stores=True,
        ),
        Workload(
            name="deathstarbench-cloudlet",
            recorded_seed=7,
            build=serving_inputs,
            call=run_serving,
            outputs=serving_outputs,
        ),
    )
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of: {', '.join(WORKLOADS)}"
        ) from None

