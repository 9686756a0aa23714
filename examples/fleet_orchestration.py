#!/usr/bin/env python3
"""Fleet orchestration: carbon-aware routing across geo-distributed cloudlets.

The paper evaluates one static phone cluster on one grid.  This example runs
the fleet subsystem over months of virtual time instead, going through the
declarative scenario layer end to end:

1. take the ``two-site-asymmetric`` preset — a Texas-like (wind+gas, dirty
   evenings) site and a Pacific-Northwest-like (hydro-heavy, clean) site of
   reused Pixel 3A phones, each with its own device-churn lifecycle;
2. compare the three routing policies via ``fig10_fleet_orchestration``
   (which re-parameterises the preset per policy and runs each through
   ``ScenarioRunner``), reporting fleet CCI, availability, battery churn,
   and the operational-carbon savings carbon-aware routing buys;
3. run one scenario directly through the runner for the unified result
   (carbon + dollars per request + latency probe in one object);
4. run the per-request latency probe to check the carbon-optimal policy
   does not wreck request latency.

Run with ``python examples/fleet_orchestration.py``.
"""

from repro.analysis import fig10_fleet_orchestration, render_fleet_report, render_scenario_result
from repro.fleet import GreedyLowestIntensityRouting, simulate_latency_aware
from repro.scenarios import ScenarioRunner, get_scenario, run_scenario


def policy_comparison() -> None:
    """Six simulated months of the two-site fleet under each policy.

    ``fig10_fleet_orchestration`` is built on the scenario layer: it derives
    per-policy specs from the ``two-site-asymmetric`` preset and runs each
    through ``ScenarioRunner``.
    """
    data = fig10_fleet_orchestration(n_devices_per_site=300, n_days=180, seed=11)
    for policy in data.policies():
        print(f"--- {policy} ---")
        print(render_fleet_report(data.reports[policy]))
        print()
    for policy in ("greedy-lowest-intensity", "marginal-cci"):
        savings = data.savings_vs(policy)
        print(f"{policy}: {savings:.1%} less operational carbon than round-robin")
    print()


def unified_scenario_result() -> None:
    """One direct runner invocation: carbon, dollars, and latency together."""
    spec = get_scenario("two-site-asymmetric").with_overrides(
        {"duration_days": 7, "seed": 11, "sites.0.devices.count": 100,
         "sites.1.devices.count": 100}
    )
    print(render_scenario_result(run_scenario(spec)))
    print()


def latency_check() -> None:
    """The latency probe: does carbon-greedy routing keep latencies sane?"""
    spec = get_scenario("two-site-asymmetric").with_overrides(
        {"seed": 11, "sites.0.devices.count": 50, "sites.1.devices.count": 50,
         "sites.0.trace.n_days": 7, "sites.1.trace.n_days": 7}
    )
    sites = ScenarioRunner(spec).build_sites()
    summary, by_site = simulate_latency_aware(
        sites,
        GreedyLowestIntensityRouting(),
        demand_rps=400.0,
        duration_s=30.0,
        seed=11,
    )
    print("Latency probe check (greedy policy, 400 rps for 30 s):")
    print(
        f"  median {summary.median_ms:.1f} ms, p99 {summary.p99_ms:.1f} ms, "
        f"completion {summary.completion_ratio:.1%}"
    )
    print(f"  per-site served counts: {by_site}")


def main() -> None:
    policy_comparison()
    unified_scenario_result()
    latency_check()


if __name__ == "__main__":
    main()
