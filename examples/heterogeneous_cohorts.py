#!/usr/bin/env python3
"""Heterogeneous in-site cohorts: one mixed junkyard rack, typed end to end.

The paper's junkyard cloudlets are built from whatever discarded phones
arrive, so the realistic deployment is a *mixed* rack — Pixel 3As next to
Nexus 4s at one location on one grid.  Historically that had to be faked
with two co-located sites; a :class:`~repro.fleet.sites.FleetSite` now holds
a list of typed cohorts, and everything downstream is per device type:
routing ranks per-cohort marginal-CCI columns, the dispatch ledger tracks
one battery pack per type, churn runs one independent seeded stream per
type, and economics prices each type's swaps and wear with its own device.

1. run the migrated ``heterogeneous-cohorts`` preset (one true mixed site)
   and print the unified result — the per-cohort table shows marginal-CCI
   routing loading the efficient Pixel cohort first;
2. demonstrate the equivalence that makes the refactor safe: the mixed site
   and the two co-located single-cohort sites it replaces produce identical
   per-type series;
3. sweep the device mix to see how the fleet CCI responds to the share of
   efficient devices in the rack.

Run with ``python examples/heterogeneous_cohorts.py``.
"""

import numpy as np

from repro.analysis import render_scenario_result, render_sweep_result
from repro.devices.catalog import NEXUS_4, PIXEL_3A
from repro.fleet import (
    CapacityAwareMarginalCciRouting,
    DeviceCohort,
    DiurnalDemand,
    FailureModel,
    FleetSimulation,
    FleetSite,
    ReplacementPolicy,
    default_intake_stream,
)
from repro.fleet.sites import regional_trace
from repro.scenarios import get_scenario, run_scenario, sweep_scenario


def mixed_site_scenario() -> None:
    """The migrated preset: one mixed site, per-type reporting."""
    spec = get_scenario("heterogeneous-cohorts").with_overrides(
        {"duration_days": 14, "charging.coupling": "dispatch"}
    )
    print(render_scenario_result(run_scenario(spec)))
    print()


def mixed_equals_colocated_twins() -> None:
    """The mixed site reproduces its two-co-located-sites approximation."""
    demand = DiurnalDemand(mean_rps=1500.0)

    # Cohorts are configuration: each run builds its own churn state from
    # them, so both layouts share the same two cohorts.
    policy = ReplacementPolicy(target_size=60)
    pixel = DeviceCohort(
        PIXEL_3A,
        policy,
        intake=default_intake_stream(PIXEL_3A, policy, FailureModel()),
        seed=4,
    )
    nexus = DeviceCohort(
        NEXUS_4,
        policy,
        intake=default_intake_stream(NEXUS_4, policy, FailureModel()),
        seed=(4, 1),
        requests_per_device_s=8.0,
    )
    trace = regional_trace("caiso-like", n_days=7, seed=2025)
    mixed = FleetSimulation(
        [FleetSite("junkyard", trace, (pixel, nexus))],
        CapacityAwareMarginalCciRouting(),
        demand,
    ).run(7)
    split = FleetSimulation(
        [
            FleetSite("pixel-rack", trace, (pixel,)),
            FleetSite("nexus-rack", trace, (nexus,)),
        ],
        CapacityAwareMarginalCciRouting(),
        demand,
    ).run(7)
    identical = np.array_equal(mixed.cohort_served_rps, split.cohort_served_rps)
    print("mixed site vs co-located twins (identical cohorts, demand, grid):")
    print(f"  per-type served series identical: {identical}")
    print(
        f"  fleet CCI {mixed.fleet_cci_g_per_request():.3e} vs "
        f"{split.fleet_cci_g_per_request():.3e} g/request"
    )
    print()


def device_mix_sweep() -> None:
    """How the rack's efficient-device share moves the fleet CCI."""
    base = get_scenario("heterogeneous-cohorts").with_overrides(
        {"duration_days": 7, "routing.latency_probe_s": 0}
    )
    sweep = sweep_scenario(
        base,
        {
            "sites.0.cohorts.0.count": [40, 120, 200],
            "sites.0.cohorts.1.count": [40, 200],
        },
    )
    print(render_sweep_result(sweep))


if __name__ == "__main__":
    mixed_site_scenario()
    mixed_equals_colocated_twins()
    device_mix_sweep()
