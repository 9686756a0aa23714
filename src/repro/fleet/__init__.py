"""Fleet subsystem: device-churn lifecycle + carbon-aware multi-site orchestration.

Where :mod:`repro.cluster` models one static cloudlet on one grid, this
package models a *fleet*: populations of reused devices arriving, aging,
failing, and being replaced across geo-distributed sites with different
grid mixes, with request routing policies that exploit the differences.

* :mod:`repro.fleet.population` — :class:`DeviceCohort` configuration
  records (device, policy, intake, failure model, seed, request rate)
  and the :class:`ChurnTable` that holds their churn state, one
  row per cohort (one column per deploy step; intake, battery aging,
  stochastic churn, replacement policies), stepped fleet-wide in array
  passes, each row with its own independent seeded stream;
  ``churn.sampler`` on the scenario spec picks the failure draw — one
  uniform per device (the reference) or one binomial per live column
  (O(days) instead of O(devices) per step);
* :mod:`repro.fleet.sites` — multi-site cloudlets: a :class:`FleetSite`
  *is* its tuple of typed :class:`DeviceCohort` records (one for a uniform
  rack, more for mixed Pixel 3A / Nexus 4 racks) bound to its own
  :class:`~repro.grid.traces.GridTrace`, its peripherals derived from
  the cohorts; plus regional trace presets;
* :mod:`repro.fleet.scheduler` — pluggable carbon-aware routing policies
  allocating over per-device-type cohort segments, with a vectorized
  hourly path and a per-request FIFO-queue latency probe;
* :mod:`repro.fleet.dispatch` — the coupled energy-dispatch core:
  per-device-type battery state-of-charge ledgers (one pack per cohort per
  site) charging at clean hours and serving load at dirty hours
  (UPS-as-carbon-buffer), replayed over the device counts the routing and
  churn pass recorded;
* :mod:`repro.fleet.reporting` — fleet CCI / availability / replacement
  carbon reporting consumed by :mod:`repro.analysis`; every report carries
  every site, dispatch and cohort series.
"""

from repro.fleet.dispatch import (
    CarbonBufferDispatch,
    DispatchPolicy,
    EnergyLedger,
    ForecastDispatch,
    PackTable,
    estimate_cohort_savings,
    estimate_fleet_savings,
    estimate_site_savings,
)
from repro.fleet.population import (
    CHURN_SAMPLERS,
    DEFAULT_REQUESTS_PER_DEVICE_S,
    ChurnTable,
    DeviceCohort,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
    steady_state_intake_rate,
)
from repro.fleet.reporting import (
    CohortSummary,
    FleetReport,
    SiteSummary,
    compare_reports,
)
from repro.fleet.scheduler import (
    POLICIES,
    SERVICE_DISTRIBUTIONS,
    CapacityAwareMarginalCciRouting,
    DiurnalDemand,
    FleetSimulation,
    GreedyLowestIntensityRouting,
    RoundRobinRouting,
    RoutingPolicy,
    policy_by_name,
    simulate_latency_aware,
)
from repro.fleet.sites import (
    REGIONAL_GENERATORS,
    FleetSite,
    caiso_like_generator,
    default_intake_stream,
    ercot_like_generator,
    hydro_heavy_generator,
    regional_trace,
)

__all__ = [
    # population
    "DeviceCohort",
    "ChurnTable",
    "IntakeStream",
    "FailureModel",
    "ReplacementPolicy",
    "steady_state_intake_rate",
    "CHURN_SAMPLERS",
    "DEFAULT_REQUESTS_PER_DEVICE_S",
    # sites
    "FleetSite",
    "default_intake_stream",
    "regional_trace",
    "caiso_like_generator",
    "ercot_like_generator",
    "hydro_heavy_generator",
    "REGIONAL_GENERATORS",
    # scheduler
    "RoutingPolicy",
    "RoundRobinRouting",
    "GreedyLowestIntensityRouting",
    "CapacityAwareMarginalCciRouting",
    "POLICIES",
    "SERVICE_DISTRIBUTIONS",
    "policy_by_name",
    "DiurnalDemand",
    "FleetSimulation",
    "simulate_latency_aware",
    # dispatch
    "DispatchPolicy",
    "CarbonBufferDispatch",
    "ForecastDispatch",
    "EnergyLedger",
    "PackTable",
    "estimate_cohort_savings",
    "estimate_site_savings",
    "estimate_fleet_savings",
    # reporting
    "FleetReport",
    "SiteSummary",
    "CohortSummary",
    "compare_reports",
]
