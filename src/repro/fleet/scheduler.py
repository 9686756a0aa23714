"""Carbon-aware multi-site request routing and the fleet simulation loop.

Routing policies decide, hour by hour, how much of the fleet's request
demand each *cohort segment* serves.  A segment is one
:class:`~repro.fleet.population.DeviceCohort` of one site — one column of the
fleet's :class:`~repro.fleet.dispatch.PackTable`.  Sites mixing several
device types expose one segment per type, each with its own capacity and
marginal-CCI column (:meth:`~repro.fleet.dispatch.PackTable.marginal_g`),
so carbon-aware routing can prefer the efficient device type *inside* a
site, not just between sites.  A fleet of
single-cohort sites has exactly one segment per site, reproducing the
historical per-site allocation bit for bit.  All three bundled policies are
*capacity-feasible* (they never route more than a segment can serve) and
fully vectorized — an allocation for a whole year of hourly timesteps
across all segments is a single NumPy pass:

* :class:`RoundRobinRouting` — demand split proportional to live capacity,
  the carbon-oblivious baseline (DNS round-robin across healthy devices);
* :class:`GreedyLowestIntensityRouting` — fill the site with the lowest
  instantaneous grid carbon intensity first, then the next, and so on;
* :class:`CapacityAwareMarginalCciRouting` — the same waterfill, but ranked
  by the *marginal CCI* of one extra request at each site: dynamic energy
  per request times local intensity plus amortised battery-wear carbon.
  This correctly prefers an efficient device on a middling grid over an
  inefficient one on a slightly cleaner grid.

Every policy accepts a ``wear_derate`` factor for battery-aware load
shedding: each segment's capacity is scaled by
``max(0, 1 - wear_derate * mean_battery_wear)`` (one helper serves the
hourly path and the latency probe), so cohorts with nearly-spent packs
shed load (and battery cycling) to healthier sites.

:class:`FleetSimulation` couples the hourly routing path with the daily
population dynamics of :mod:`repro.fleet.population`: each run steps one
fresh :class:`~repro.fleet.population.ChurnTable` built from its sites'
cohorts, so capacity follows the live device count, realised utilisation
drives battery cycling, churn feeds replacement carbon into the fleet
ledger, and the sites themselves never change.  With a
:class:`~repro.fleet.dispatch.DispatchPolicy` in the loop, each site also
carries a battery state-of-charge ledger: clean hours charge the packs from
idle headroom, dirty hours serve device load from the packs
(UPS-as-carbon-buffer); without one, the report's grid/battery/charge/SoC
series are the zero-dispatch ledger.  For latency-aware questions,
:func:`simulate_latency_aware` routes individual requests through the same
sites and policy, each site a FIFO queue with one slot per device.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.fleet.dispatch import (
    DispatchPolicy,
    PackTable,
    physical_utilization,
    replay_dispatch,
)
from repro.fleet.population import ChurnTable
from repro.fleet.reporting import FleetReport, day_start_counts
from repro.fleet.sites import FleetSite
from repro.microservices.calibration import SERVICE_TIME_SIGMA
from repro.simulation.metrics import LatencySummary, summarize
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import ensure_telemetry

#: Service-time distributions :func:`simulate_latency_aware` can draw from.
#: ``deterministic`` reproduces the historical fixed ``1/rate`` service time;
#: the stochastic shapes keep that mean, with the lognormal's log-sigma from
#: the microservice simulator's calibrated variability
#: (:data:`~repro.microservices.calibration.SERVICE_TIME_SIGMA`).
SERVICE_DISTRIBUTIONS = ("deterministic", "exponential", "lognormal")

#: Arrivals (and per-site service times) the latency probe draws, keys and
#: routes per vector pass.
_BLOCK = 4096

#: Slack (requests/s) a routing policy's allocation may exceed its bounds
#: by: zero, each segment's capacity, and (relatively too) the demand.
ALLOC_TOL_RPS = 1e-6

#: Undelivered discharge energy (J) above which a dispatch hour counts as
#: a clipped setpoint.
CLIP_TOL_J = 1e-9


# ---------------------------------------------------------------------------
# Demand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiurnalDemand:
    """A deterministic diurnal + weekly fleet demand model (requests/s).

    Demand follows a sinusoidal daily cycle peaking at ``peak_hour`` with
    relative amplitude ``daily_amplitude``, modulated by a weekly cycle that
    dips on the weekend.  Determinism matters: the scheduler's reproducibility
    guarantee (fixed seed => identical fleet CCI) must not depend on demand
    noise, so any stochastic demand belongs in a wrapping model.
    """

    mean_rps: float
    daily_amplitude: float = 0.35
    peak_hour: float = 20.0
    weekly_amplitude: float = 0.10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_rps) and self.mean_rps > 0):
            raise ValueError(
                f"mean_rps must be positive and finite, got {self.mean_rps!r}"
            )
        if not math.isfinite(self.peak_hour):
            raise ValueError(f"peak_hour must be finite, got {self.peak_hour!r}")
        if not 0.0 <= self.daily_amplitude < 1.0:
            raise ValueError("daily amplitude must be within [0, 1)")
        if not 0.0 <= self.weekly_amplitude < 1.0:
            raise ValueError("weekly amplitude must be within [0, 1)")

    def series(self, n_hours: int, start_hour: float = 0.0) -> np.ndarray:
        """Demand (requests/s) for ``n_hours`` hourly timesteps."""
        if n_hours <= 0:
            raise ValueError("n_hours must be positive")
        hours = start_hour + np.arange(n_hours, dtype=float)
        daily = 1.0 + self.daily_amplitude * np.cos(
            2.0 * np.pi * (hours - self.peak_hour) / 24.0
        )
        # Minimum at day 5.5 (the weekend midpoint), renormalised so the
        # weekly mean stays exactly mean_rps.
        weekly = 1.0 - self.weekly_amplitude * 0.5 * (
            1.0 + np.cos(2.0 * np.pi * (hours / 24.0 - 5.5) / 7.0)
        )
        weekly /= 1.0 - self.weekly_amplitude / 2.0
        return self.mean_rps * daily * weekly


# ---------------------------------------------------------------------------
# Routing policies (vectorized hourly path)
# ---------------------------------------------------------------------------


class RoutingPolicy(abc.ABC):
    """Allocates hourly fleet demand across cohort segments.

    ``wear_derate`` enables battery-aware load shedding: the capacity the
    policy sees for a segment is scaled by ``1 - wear_derate *
    mean_battery_wear`` of its cohort, so heavily-cycled cohorts are offered
    less load and wear out fewer replacement packs.  ``0`` (the default)
    reproduces the wear-oblivious behaviour exactly.
    """

    name: str = "policy"

    def __init__(self, wear_derate: float = 0.0) -> None:
        if not 0.0 <= wear_derate <= 1.0:
            raise ValueError(f"wear derate must be within [0, 1], got {wear_derate}")
        self.wear_derate = wear_derate

    @abc.abstractmethod
    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        """Return served requests/s per ``(timestep, segment)``.

        ``demand_rps`` has shape ``(T,)``; the three matrices have shape
        ``(T, C)`` for ``C`` cohort segments (``C == S`` when every site has
        one cohort).  Implementations must return a non-negative ``(T, C)``
        allocation with per-segment values bounded by ``capacity_rps`` and
        row sums bounded by ``demand_rps`` (unmet demand is dropped and
        reported by the simulation).
        """

    def request_keys(
        self, packs: PackTable, intensity: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-request ranking keys for the latency probe (lower is better).

        ``intensity`` is the ``(B, S)`` grid intensity of each site of
        ``packs`` at a block of ``B`` arrival times; the result is one
        ``(B, S)`` key per arrival and site.  A site's key is its best
        (lowest) pack marginal, since the next request routed there lands
        on its most efficient device type.  Keys are in *grams of CO2e per
        request* so the probe can add a gram-denominated backlog penalty
        without mixing units.  Returning ``None`` opts out of carbon
        ranking: the scheduler falls back to capacity-weighted rotation
        (true per-request round-robin).
        """
        return _site_keys(packs, intensity, include_wear=True)


def _site_keys(
    packs: PackTable, intensity: np.ndarray, include_wear: bool
) -> np.ndarray:
    """Each site's lowest pack marginal at ``(B, S)`` site intensities."""
    marginal = packs.marginal_g(intensity[:, packs.site_index], include_wear)
    return np.minimum.reduceat(marginal, packs.site_starts, axis=1)


def _waterfill(
    demand_rps: np.ndarray, capacity_rps: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Fill sites in ascending ``key`` order up to capacity, per timestep."""
    order = np.argsort(key, axis=1, kind="stable")
    cap_sorted = np.take_along_axis(capacity_rps, order, axis=1)
    cum_before = np.cumsum(cap_sorted, axis=1) - cap_sorted
    remaining = np.clip(demand_rps[:, None] - cum_before, 0.0, None)
    alloc_sorted = np.minimum(cap_sorted, remaining)
    alloc = np.empty_like(alloc_sorted)
    np.put_along_axis(alloc, order, alloc_sorted, axis=1)
    return alloc


class RoundRobinRouting(RoutingPolicy):
    """Carbon-oblivious baseline: split demand proportional to live capacity."""

    name = "round-robin"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        total = capacity_rps.sum(axis=1)
        served_total = np.minimum(demand_rps, total)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(total[:, None] > 0, capacity_rps / total[:, None], 0.0)
        return share * served_total[:, None]

    def request_keys(
        self, packs: PackTable, intensity: np.ndarray
    ) -> Optional[np.ndarray]:
        return None  # carbon-oblivious: rotate across sites instead


class GreedyLowestIntensityRouting(RoutingPolicy):
    """Waterfill sites from cleanest to dirtiest instantaneous grid."""

    name = "greedy-lowest-intensity"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        return _waterfill(demand_rps, capacity_rps, intensity)

    def request_keys(
        self, packs: PackTable, intensity: np.ndarray
    ) -> Optional[np.ndarray]:
        # Intensity ranking expressed in grams: dynamic energy x intensity,
        # without the wear term the marginal-CCI policy adds.
        return _site_keys(packs, intensity, include_wear=False)


class CapacityAwareMarginalCciRouting(RoutingPolicy):
    """Waterfill ranked by marginal carbon per request (energy x intensity + wear)."""

    name = "marginal-cci"

    def allocate(
        self,
        demand_rps: np.ndarray,
        capacity_rps: np.ndarray,
        intensity: np.ndarray,
        marginal_g_per_request: np.ndarray,
    ) -> np.ndarray:
        return _waterfill(demand_rps, capacity_rps, marginal_g_per_request)


#: Registry of the bundled policies, keyed by their public names.
POLICIES: Dict[str, type] = {
    RoundRobinRouting.name: RoundRobinRouting,
    GreedyLowestIntensityRouting.name: GreedyLowestIntensityRouting,
    CapacityAwareMarginalCciRouting.name: CapacityAwareMarginalCciRouting,
}


def policy_by_name(name: str, wear_derate: float = 0.0) -> RoutingPolicy:
    """Instantiate one of the bundled routing policies by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown policy {name!r}; expected one of: {known}") from None
    return cls(wear_derate=wear_derate)


# ---------------------------------------------------------------------------
# Fleet simulation (vectorized hourly path + daily population dynamics)
# ---------------------------------------------------------------------------


class FleetSimulation:
    """Couples hourly carbon-aware routing with daily device-churn dynamics.

    Each simulated day steps through four phases: (1) the routing policy
    allocates 24 hourly demand steps across the cohort segments' live
    (wear-derated) capacities, local grid intensities, and per-device-type
    marginal-CCI terms, (2) the dispatch policy — when one is coupled in —
    co-decides per hour whether each cohort's served device load draws from
    grid or from its own battery pack and whether its idle headroom charges
    the pack, (3) each site's operational carbon integrates the realised
    *wall* energy (grid serving + battery charging) against its trace, and
    (4) each cohort steps one day of aging, failures, battery wear, and
    spare deployment at the utilisation the routing actually produced on
    *that* device type, with its own independent RNG stream.  The churn
    state lives in one :class:`~repro.fleet.population.ChurnTable` that
    every :meth:`run` builds afresh from the cohorts (kept afterwards as
    :attr:`churn`), so rerunning a simulation, or simulating the same
    sites again, reproduces the report bit for bit.

    Without a dispatch policy the batteries stay full (the decoupled
    baseline) and the grid/battery/charge series degenerate to
    ``grid == energy``, ``battery == charge == 0``, ``soc == 1``.

    Execution is two-pass.  Pass A is the irreducibly serial day loop:
    capacity follows churn and churn follows realised utilisation, so
    allocation and population stepping must alternate day by day — but the
    purely time-indexed inputs (demand series, grid intensities, marginal
    CCI) are precomputed once for the whole run.  Pass B replays the
    dispatch timeline afterwards (:func:`~repro.fleet.dispatch.
    replay_dispatch`), one day of the ledger's :meth:`~repro.fleet.
    dispatch.EnergyLedger.step_block` at a time, from the fields Pass A
    fills in the report: site intensities, served load, device energy and
    the day-start counts the churn series imply.  Every report is locked
    bitwise against recorded digests
    (``tests/fleet/test_execution_identity.py``).

    The report is the run's one record.  After :meth:`run` the simulation
    keeps only that :attr:`report` and the :attr:`churn` table; Pass A
    never reads the dispatch policy, so :meth:`replay_avoided_g` prices
    another policy on the same fleet by re-running Pass B over the report.
    """

    def __init__(
        self,
        sites: Sequence[FleetSite],
        policy: RoutingPolicy,
        demand: DiurnalDemand,
        dispatch: Optional[DispatchPolicy] = None,
        telemetry=None,
        audit: bool = False,
    ) -> None:
        if not sites:
            raise ValueError("a fleet needs at least one site")
        #: Opt-in invariant audit: after Pass B, re-derive the conservation
        #: laws the report must obey (see
        #: :mod:`repro.telemetry.observatory.audit`).  The auditor only
        #: reads the finished report — results are bitwise-identical either
        #: way, and a disabled audit never even imports the module.
        self.audit = bool(audit)
        self.audit_report = None
        #: The last :meth:`run`'s churn table: every cohort's state at the
        #: end of that run (``None`` before the first run).
        self.churn: Optional[ChurnTable] = None
        #: The last :meth:`run`'s report: the run's one record, which
        #: :meth:`replay_avoided_g` replays (``None`` before the first run).
        self.report: Optional[FleetReport] = None
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"site names must be unique, got {names}")
        self.sites = list(sites)
        self.policy = policy
        self.demand = demand
        self.dispatch = dispatch
        #: Instrumentation context; the no-op default costs nothing and
        #: telemetry never touches RNG or numeric state (locked by tests).
        self.telemetry = ensure_telemetry(telemetry)
        #: Every segment's per-device constants, in site-major column order
        #: (the allocation columns): each count-dependent capability below
        #: is a product of recorded counts with it.
        self.packs = PackTable.from_sites(self.sites)

    def run(self, n_days: int) -> FleetReport:
        """Simulate ``n_days`` of virtual time and return the fleet report."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        packs = self.packs
        n_cohorts = len(packs)
        hours_per_day = 24
        step_s = units.SECONDS_PER_HOUR
        n_steps = n_days * hours_per_day

        alloc_all = np.empty((n_steps, n_cohorts))
        cohort_active = np.zeros((n_days, n_cohorts), dtype=np.int64)
        cohort_replacement_g = np.zeros((n_days, n_cohorts))
        cohort_swaps = np.zeros((n_days, n_cohorts), dtype=np.int64)
        cohort_failures = np.zeros((n_days, n_cohorts), dtype=np.int64)
        cohort_deployed = np.zeros((n_days, n_cohorts), dtype=np.int64)
        cohort_retirements = np.zeros((n_days, n_cohorts), dtype=np.int64)

        tele = self.telemetry

        # -- Pass A: the serial coordinator loop ---------------------------
        # Allocation and churn are irreducibly day-sequential (capacity for
        # day d+1 depends on churn at day d, churn depends on realised
        # utilisation), but the time-indexed inputs hoist: one precompute
        # covers demand, intensity, and marginal CCI for the whole run
        # (calls=0: setup time folds into the phase without inflating its
        # invocation count).
        with tele.span("allocate_day", calls=0):
            demand_all, intensity_sites, marginal_all = self._precompute_inputs(
                n_steps, step_s
            )
        # Every cohort is a row of one fresh churn table, stepped once per day.
        self.churn = churn = ChurnTable(packs.entries)
        for day in range(n_days):
            rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
            # Day-start capacity, read before churn moves the counts.
            physical = churn.active * packs.requests_per_device_s
            with tele.span("allocate_day"):
                alloc = self._allocate_day(
                    hours_per_day,
                    step_s,
                    demand_all[rows],
                    intensity_sites[rows][:, packs.site_index],
                    marginal_all[rows],
                    physical,
                )
            alloc_all[rows] = alloc
            if tele.enabled:
                # "Segments touched": (hour, segment) cells the waterfill
                # actually routed load through this day.
                tele.count(
                    "routing.waterfill_segments_touched",
                    int(np.count_nonzero(alloc)),
                )

            # Daily population step at the realised utilisation.  Each
            # cohort's mean reduces one contiguous row of the transpose, the
            # 1-D pairwise sum ``np.mean(utilization[:, j])`` takes
            # (``mean(axis=0)`` adds the hours in another order).
            with tele.span("step_population"):
                utilization = physical_utilization(alloc, physical)
                means = np.ascontiguousarray(utilization.T).mean(axis=1)
                if tele.enabled:
                    tele.count("churn.cohort_days", len(means))
                day_step = churn.step(1.0, means.tolist())
            cohort_active[day] = day_step["active"]
            cohort_replacement_g[day] = day_step["replacement_carbon_g"]
            cohort_swaps[day] = day_step["battery_swaps"]
            cohort_failures[day] = day_step["failures"]
            cohort_deployed[day] = day_step["deployed"]
            cohort_retirements[day] = day_step["retirements"]

        if tele.enabled:
            # Which failure draw stepped this run, and how many distinct
            # device-state buckets it peaked at.
            samplers = {cohort.sampler for cohort in packs.entries}
            tele.gauge(
                "churn.sampler",
                samplers.pop() if len(samplers) == 1 else "mixed",
            )
            tele.gauge("churn.buckets_peak", int(churn.buckets_peak().max()))

        # -- Pass B: dispatch over the report's fields ---------------------
        counts_day = day_start_counts(packs.target, cohort_active)
        # Device-only energy each cohort needs per hour: the idle floor of
        # its day-start devices plus each served request's dynamic energy.
        # The report adds each site's (never battery-backed) peripheral
        # draw once.
        with tele.span("site_energy_kwh", calls=n_days):
            if np.any(alloc_all < 0):
                raise ValueError("served rate must be non-negative")
            power_w = (
                np.repeat(counts_day, hours_per_day, axis=0) * packs.idle_w
                + alloc_all * packs.dynamic_j
            )
            device_kwh = power_w * step_s / units.JOULES_PER_KWH

        clipped_setpoints = 0
        clipped_energy_kwh = 0.0
        shortfall_j = None
        if self.dispatch is None:
            cohort_battery_kwh = np.zeros((n_steps, n_cohorts))
            cohort_charge_kwh = np.zeros((n_steps, n_cohorts))
            cohort_soc = np.ones((n_steps, n_cohorts))
        else:
            with tele.span("dispatch_day", calls=n_days):
                battery_j, charge_j, cohort_soc, shortfall_j = replay_dispatch(
                    packs,
                    self.dispatch,
                    intensity_sites,
                    device_kwh,
                    alloc_all,
                    counts_day,
                    step_s,
                )
            cohort_battery_kwh = battery_j / units.JOULES_PER_KWH
            cohort_charge_kwh = charge_j / units.JOULES_PER_KWH
            clipped_setpoints, clipped_energy_kwh = self._clip_accounting(
                shortfall_j, hours_per_day
            )
            if tele.enabled:
                tele.count("dispatch.clipped_setpoints", clipped_setpoints)
                tele.count("dispatch.clipped_kwh", clipped_energy_kwh)
                tele.count(
                    "dispatch.fallback_pack_days",
                    getattr(self.dispatch, "fallback_pack_days", 0),
                )
                tele.count(
                    "dispatch.forecast_windows",
                    getattr(self.dispatch, "forecast_windows", 0),
                )
                tele.count(
                    "dispatch.planned_windows",
                    getattr(self.dispatch, "planned_windows", 0),
                )
                tele.count(
                    "dispatch.projected_windows",
                    getattr(self.dispatch, "projected_windows", 0),
                )

        report = FleetReport(
            policy_name=self.policy.name,
            site_names=tuple(site.name for site in self.sites),
            dropped_rps=demand_all - alloc_all.sum(axis=1),
            intensity_g_per_kwh=intensity_sites,
            site_peripheral_kwh=np.array(
                [site.peripheral_power_w for site in self.sites]
            )
            * (step_s / units.JOULES_PER_KWH),
            step_s=step_s,
            cohort_labels=tuple(
                label for site in self.sites for label in site.cohort_labels()
            ),
            cohort_site_index=packs.site_index.copy(),
            cohort_target=packs.target.copy(),
            cohort_served_rps=alloc_all,
            cohort_energy_kwh=device_kwh,
            cohort_battery_kwh=cohort_battery_kwh,
            cohort_charge_kwh=cohort_charge_kwh,
            cohort_soc=cohort_soc,
            cohort_battery_capacity_j=counts_day * packs.battery_j,
            cohort_active=cohort_active,
            cohort_replacement_carbon_g=cohort_replacement_g,
            cohort_battery_swaps=cohort_swaps,
            cohort_failures=cohort_failures,
            cohort_deployed=cohort_deployed,
            clipped_setpoints=clipped_setpoints,
            clipped_energy_kwh=clipped_energy_kwh,
        )

        if self.audit:
            from repro.telemetry.observatory.audit import audit_fleet_run

            with tele.span("audit"):
                self.audit_report = audit_fleet_run(
                    report,
                    demand_rps=demand_all,
                    retirements=cohort_retirements,
                    shortfall_j=shortfall_j,
                    min_soc=(
                        self.dispatch.min_state_of_charge
                        if self.dispatch is not None
                        else None
                    ),
                    requests_per_device_s=packs.requests_per_device_s,
                    swap_embodied_g=churn.embodied_g,
                    telemetry=tele if tele.enabled else None,
                )

        self.report = report
        return report

    def replay_avoided_g(
        self, dispatch: DispatchPolicy, truth: Optional[np.ndarray] = None
    ) -> float:
        """Carbon (g) ``dispatch`` would have avoided on the last run's fleet.

        Routing and churn never read the dispatch policy, so running the
        same fleet under another policy changes Pass B alone: this replays
        the dispatch over the last :attr:`report`'s fields, the same path
        and inputs the run's own dispatch pass took, and reduces it with
        the report's :meth:`~repro.fleet.reporting.FleetReport.
        carbon_avoided_g`.  Bitwise-identical to re-simulating the whole
        fleet under ``dispatch``; records no telemetry.  ``truth`` hands
        the replay the hourly truth table the run's own forecast dispatch
        built (:attr:`~repro.fleet.dispatch.ForecastDispatch.truth`).
        Raises ``RuntimeError`` before the first :meth:`run`.
        """
        report = self.report
        if report is None:
            raise RuntimeError("replay_avoided_g needs a finished run()")
        battery_j, charge_j, *_ = replay_dispatch(
            self.packs,
            dispatch,
            report.intensity_g_per_kwh,
            report.cohort_energy_kwh,
            report.cohort_served_rps,
            report.cohort_day_start,
            report.step_s,
            truth,
        )
        return dataclasses.replace(
            report,
            cohort_battery_kwh=battery_j / units.JOULES_PER_KWH,
            cohort_charge_kwh=charge_j / units.JOULES_PER_KWH,
        ).carbon_avoided_g()

    # -- per-day phases ----------------------------------------------------

    def _precompute_inputs(self, n_hours: int, step_s: float):
        """Hoisted time-indexed inputs for the run's first ``n_hours`` hours.

        Demand, per-site intensity, and per-pack marginal CCI depend
        only on the hour index — never on live population state — so one
        call covers the whole run.  Hour timestamps are exactly
        representable integers and every series is elementwise in them, so
        the whole-run call is bitwise-identical to per-day calls.
        """
        times_s = np.arange(n_hours) * step_s
        demand_rps = self.demand.series(n_hours)
        site_intensity = np.empty((n_hours, len(self.sites)))
        for j, site in enumerate(self.sites):
            site_intensity[:, j] = site.trace.intensities_at(times_s, wrap=True)
        marginal = self.packs.marginal_g(site_intensity[:, self.packs.site_index])
        return demand_rps, site_intensity, marginal

    def _allocate_day(
        self,
        hours_per_day: int,
        step_s: float,
        demand_rps: np.ndarray,
        intensity: np.ndarray,
        marginal: np.ndarray,
        physical: np.ndarray,
    ) -> np.ndarray:
        """Phase 1: route one day of hourly demand across the live segments.

        Only the capacity matrix is computed here — it follows the
        churn-following day-start counts, which is exactly why this phase
        cannot hoist with the whole-run precompute that feeds it.
        ``physical`` is each segment's non-derated capacity at the day's
        start; the routed capacity is its wear-derated share.
        """
        capacity = np.tile(
            _effective_capacity(self.churn, physical, self.policy.wear_derate),
            (hours_per_day, 1),
        )
        alloc = self.policy.allocate(demand_rps, capacity, intensity, marginal)
        self._validate_allocation(alloc, demand_rps, capacity)
        if self.telemetry.enabled and self.policy.wear_derate > 0:
            # Request capacity the wear derate withheld from routing today
            # (rps x seconds = requests) — the shedding that is otherwise
            # invisible in the report's served/dropped series.
            withheld_rps = max(0.0, float(physical.sum() - capacity[0].sum()))
            self.telemetry.count(
                "routing.wear_shed_requests", withheld_rps * hours_per_day * step_s
            )
        return alloc

    def _clip_accounting(
        self, shortfall_j: np.ndarray, hours_per_day: int
    ) -> Tuple[int, float]:
        """Clipped-setpoint count and clipped energy (kWh) from the replay.

        *Clipped setpoints* are hours where the policy asked a pack to
        discharge but the ledger's physics (SoC floor, or the forced
        recharge below it) could not deliver the full device energy.  The
        planner gets no signal when its plan is infeasible — the clip count
        and energy are that signal, surfaced via
        :class:`~repro.fleet.reporting.FleetReport` and the telemetry
        counters.  Accumulation replicates the historical per-day loop
        exactly: masked joule sums per hot hour in hour order, one kWh
        conversion per day in day order.
        """
        infeasible = shortfall_j > CLIP_TOL_J
        hot_rows = np.nonzero(infeasible.any(axis=1))[0]
        n_days = shortfall_j.shape[0] // hours_per_day
        day_counts = [0] * n_days
        day_joules = [0.0] * n_days
        for row in hot_rows:
            day = int(row) // hours_per_day
            mask = infeasible[row]
            day_counts[day] += int(np.count_nonzero(mask))
            day_joules[day] += float(shortfall_j[row][mask].sum())
        clipped = 0
        clipped_kwh = 0.0
        for day in range(n_days):
            clipped += day_counts[day]
            clipped_kwh += day_joules[day] / units.JOULES_PER_KWH
        return clipped, clipped_kwh

    @staticmethod
    def _validate_allocation(
        alloc: np.ndarray, demand: np.ndarray, capacity: np.ndarray
    ) -> None:
        if np.any(alloc < -ALLOC_TOL_RPS):
            raise ValueError("policy produced a negative allocation")
        if np.any(alloc > capacity + ALLOC_TOL_RPS):
            raise ValueError("policy allocated beyond segment capacity")
        if np.any(alloc.sum(axis=1) > demand * (1 + ALLOC_TOL_RPS) + ALLOC_TOL_RPS):
            raise ValueError("policy served more than the offered demand")


# ---------------------------------------------------------------------------
# Latency-aware path: a FIFO queue per site
# ---------------------------------------------------------------------------


def _effective_capacity(
    churn: ChurnTable, capacity: np.ndarray, wear_derate: float
) -> np.ndarray:
    """Each pack's request ``capacity`` after battery-wear load shedding.

    A policy with ``wear_derate = k`` treats each pack as if its capacity
    were scaled by ``max(0, 1 - k * mean_battery_wear)`` of its row of
    ``churn``: packs whose batteries are near end-of-life shed load,
    trading a little operational carbon for fewer replacement packs (and
    their embodied carbon).  ``k = 0`` returns ``capacity`` itself.
    """
    if wear_derate <= 0.0:
        return capacity
    return capacity * np.maximum(0.0, 1.0 - wear_derate * churn.mean_battery_wear())


def _site_sums(packs: PackTable, column: np.ndarray) -> List[float]:
    """Each site's sum of a per-pack ``column``, added left to right.

    Python's ``sum``, not ``np.add.reduceat``, which adds three or more
    terms in another order and so can move a slot count sitting on a
    rounding boundary.
    """
    values = column.tolist()
    bounds = [*packs.site_starts.tolist(), len(values)]
    return [sum(values[start:stop]) for start, stop in zip(bounds, bounds[1:])]


def simulate_latency_aware(
    sites: Sequence[FleetSite],
    policy: RoutingPolicy,
    demand_rps: float,
    duration_s: float = 60.0,
    seed: int = 0,
    queue_penalty_g: float = 5e-6,
    service_distribution: str = "deterministic",
    telemetry=None,
    churn: Optional[ChurnTable] = None,
) -> Tuple[LatencySummary, Dict[str, int]]:
    """Serve a Poisson request stream through the sites, one request at a time.

    Where the vectorized path treats each hour as a fluid allocation, this
    path models individual requests: exponential inter-arrivals, per-site
    FIFO service at ``requests_per_device_s`` per device, and the site's
    network RTT added to every response.  Each arrival is routed by the
    policy's :meth:`~RoutingPolicy.request_keys` (grams per request) plus
    ``queue_penalty_g`` grams per already-queued request, so carbon-greedy
    policies shed load to the next-cleanest site once the clean site backs
    up.  The default penalty is on the order of a phone-cloudlet marginal
    (a few 1e-6 g/request), so spill happens after a handful of queued
    requests rather than after a multi-second backlog.  Policies whose key
    is ``None`` (round-robin) rotate: each request goes to the site with
    the lowest served-count-to-capacity ratio.  A site with no live devices
    has no slot and is never chosen.

    ``service_distribution`` selects how per-request service times are
    drawn (:data:`SERVICE_DISTRIBUTIONS`): the ``"deterministic"`` default
    keeps the fixed ``1/requests_per_device_s``; ``"exponential"`` and
    ``"lognormal"`` draw from a seeded stream with the same mean, the
    lognormal shaped by the microservice simulator's calibrated
    variability — so the probe's tail percentiles reflect per-request
    jitter, not just queueing.

    Each site is a FIFO queue with one slot per effective device, run as
    the Kiefer–Wolfowitz recursion with no event queue: a request starts
    at its arrival or when the earliest slot falls free, whichever is
    later, and its response lands one service time plus the RTT after
    that.  A site's queue length is its count of requests not yet started.
    The latencies, sorted into completion order, go straight to
    :func:`~repro.simulation.metrics.summarize`.  Gaps, arrival times,
    site intensities, keys (one :meth:`~RoutingPolicy.request_keys` call
    over the probe's :class:`~repro.fleet.dispatch.PackTable`) and service
    times come a block of ``_BLOCK`` arrivals at a time, bitwise equal to
    one scalar draw and one key per request; only a block's arrivals before
    the horizon are keyed.  A mixed site serves at its target-weighted mean
    per-device rate (``PackTable.site_rate``).

    Once the clock passes the latest start of any request that waited, no
    site has a backlog, so every penalised key is its raw key: such an
    arrival goes to the block's precomputed per-row argmin, which takes the
    first minimum just as the penalty scan does.  Only arrivals during a
    backlog run the scan over the live sites.  Keys must be finite (NaN is
    where ``argmin`` and ``min`` disagree); a non-finite key raises
    ``ValueError``.

    ``churn`` is the fleet state the probe serves from: one row per
    ``(site, cohort)`` pack in site-major order, built from these sites'
    cohorts (a :class:`FleetSimulation`'s :attr:`~FleetSimulation.churn`
    after its run).  Its live counts set each site's slots and its wear
    means the derate; the default is a fresh table, the sites as deployed.

    Returns the overall latency summary and the per-site served counts.
    Sites are keyed by name, so ``sites`` must be non-empty and its names
    unique (as :class:`FleetSimulation` requires), and at least one must
    have live devices.  ``demand_rps``, ``duration_s`` and
    ``queue_penalty_g`` must be finite.  ``telemetry`` (default none)
    counts the probe's work: the ``probe.offered`` and ``probe.completed``
    requests, the ``probe.queued`` ones that waited for a slot, and the
    ``probe.scanned`` ones routed by the penalty scan.
    """
    if not sites:
        raise ValueError("the latency probe needs at least one site")
    names = [site.name for site in sites]
    if len(set(names)) != len(names):
        raise ValueError(f"site names must be unique, got {names}")
    if not (math.isfinite(demand_rps) and demand_rps > 0):
        raise ValueError(f"demand_rps must be finite and positive, got {demand_rps}")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not (math.isfinite(queue_penalty_g) and queue_penalty_g >= 0):
        raise ValueError(
            f"queue_penalty_g must be finite and non-negative, got {queue_penalty_g}"
        )
    if service_distribution not in SERVICE_DISTRIBUTIONS:
        known = ", ".join(SERVICE_DISTRIBUTIONS)
        raise ValueError(
            f"unknown service distribution {service_distribution!r}; "
            f"expected one of: {known}"
        )
    streams = RandomStreams(seed=seed)

    packs = PackTable.from_sites(sites)
    cohorts = packs.entries
    if churn is None:
        churn = ChurnTable(cohorts)
    elif len(churn.cohorts) != len(cohorts) or any(
        row is not cohort for row, cohort in zip(churn.cohorts, cohorts)
    ):
        raise ValueError(
            "the churn table's rows must be the sites' cohorts, in pack order"
        )
    site_rate = packs.site_rate[packs.site_starts].tolist()
    # The probe sees the same (wear-derated) capacity the hourly path
    # routes against: a policy shedding load from a worn cohort also offers
    # fewer concurrent request slots here.  Slots are the site's capacity
    # divided back into whole devices at its per-device rate, rounded (not
    # truncated) so ``active * rate / rate`` cannot drop a device to
    # representation error; a site with no live capacity offers no slot,
    # any other at least one.
    capacity = _effective_capacity(
        churn, churn.active * packs.requests_per_device_s, policy.wear_derate
    )
    slots = [
        max(1, int(round(capacity_rps / rate))) if capacity_rps > 0 else 0
        for capacity_rps, rate in zip(_site_sums(packs, capacity), site_rate)
    ]
    live = [j for j, n in enumerate(slots) if n > 0]
    if not live:
        raise ValueError(f"the latency probe needs a site with live devices: {names}")
    # Rotation divides each site's routed count by its slot capacity.
    capacities = [n * rate for n, rate in zip(slots, site_rate)]
    routed = [0] * len(sites)
    # Per site: when each slot next falls free (a min-heap), and the start
    # times of the requests still waiting for a slot, in arrival order.
    free_at = [[0.0] * n for n in slots]
    waiting = [collections.deque() for _ in sites]

    # The lognormal factor stream has mean exp(sigma^2/2); the correction
    # keeps the drawn mean at 1/rate so distributions differ in shape only.
    lognormal_mean_correction = float(np.exp(-0.5 * SERVICE_TIME_SIGMA**2))

    def service_times(site: FleetSite, rate: float):
        """The site's service times in service order, drawn a block at a time."""
        mean = 1.0 / rate
        rng = streams.stream(f"service@{site.name}")
        while True:
            if service_distribution == "exponential":
                block = rng.exponential(mean, size=_BLOCK)
            elif service_distribution == "lognormal":
                factors = rng.lognormal(0.0, SERVICE_TIME_SIGMA, size=_BLOCK)
                block = mean * factors * lognormal_mean_correction
            else:
                block = np.full(_BLOCK, mean)
            yield from block.tolist()

    draw = [
        service_times(site, rate).__next__ for site, rate in zip(sites, site_rate)
    ]
    rtt = [site.network_rtt_s for site in sites]
    arrived: List[np.ndarray] = []
    landed: List[float] = []
    queued = scanned = 0
    # The latest start time of any request that waited for a slot: from
    # then on every site's queue is empty until another request waits.
    backlog_until = -math.inf
    live_sites = np.asarray(live)
    rng = streams.stream("arrivals")
    mean_gap = 1.0 / demand_rps
    now = 0.0
    while True:
        gaps = rng.exponential(mean_gap, size=_BLOCK)
        # add.accumulate is sequential, so each time is bitwise the scalar
        # sum ``now + gap`` (``now + cumsum(gaps)`` is not).
        times = np.cumsum(np.concatenate(([now], gaps)))[1:]
        # Only arrivals before the horizon are keyed and served.
        cut = int(np.searchsorted(times, duration_s))
        times = times[:cut]
        arrived.append(times)
        if not cut:
            break
        intensity = np.empty((cut, len(sites)))
        for j, site in enumerate(sites):
            intensity[:, j] = site.trace.intensities_at(times, wrap=True)
        keys = policy.request_keys(packs, intensity)
        if keys is not None:
            keys = keys[:, live]
            if not np.isfinite(keys).all():
                raise ValueError(
                    f"policy {policy.name!r} returned a non-finite request key"
                )
            # With every queue empty each penalised key is its raw key, and
            # argmin, like ``list.index(min(...))``, takes the first minimum.
            shortcut = live_sites[keys.argmin(axis=1)].tolist()
        for i, now in enumerate(times.tolist()):
            if keys is None:
                # Capacity-weighted rotation: send the request to the site
                # that has served the smallest share of its capacity so far.
                shares = [routed[j] / capacities[j] for j in live]
                best = live[shares.index(min(shares))]
            elif now >= backlog_until:
                best = shortcut[i]
            else:
                scanned += 1
                penalized = []
                for key, j in zip(keys[i].tolist(), live):
                    queue = waiting[j]
                    while queue and queue[0] <= now:
                        queue.popleft()
                    penalized.append(key + len(queue) * queue_penalty_g)
                best = live[penalized.index(min(penalized))]
            routed[best] += 1
            slots_free = free_at[best]
            start = slots_free[0]
            if start > now:
                queued += 1
                waiting[best].append(start)
                if start > backlog_until:
                    backlog_until = start
            else:
                start = now
            finish = start + draw[best]()
            heapq.heapreplace(slots_free, finish)
            landed.append(finish + rtt[best])
        if cut < _BLOCK:
            break

    landed_s = np.array(landed)
    order = np.argsort(landed_s, kind="stable")
    latencies = (landed_s - np.concatenate(arrived))[order]
    tele = ensure_telemetry(telemetry)
    tele.count("probe.offered", len(latencies))
    tele.count("probe.completed", len(latencies))
    tele.count("probe.queued", queued)
    tele.count("probe.scanned", scanned)
    summaries = summarize({"request": latencies}, offered={"request": len(latencies)})
    if "request" not in summaries:
        raise RuntimeError("no requests completed; increase duration or demand")
    return summaries["request"], dict(zip(names, routed))
