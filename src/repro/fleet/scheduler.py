"""Carbon-aware multi-site request routing and the fleet simulation loop.

Routing policies decide, hour by hour, how much of the fleet's request
demand each *cohort segment* serves.  A segment is one
:class:`~repro.fleet.sites.SiteCohort` of one site — sites mixing several
device types expose one segment per type, each with its own capacity and
marginal-CCI column, so carbon-aware routing can prefer the efficient
device type *inside* a site, not just between sites.  A fleet of
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
shedding: a site's effective capacity is scaled by
``1 - wear_derate * mean_battery_wear``, so cohorts with nearly-spent packs
shed load (and battery cycling) to healthier sites.

:class:`FleetSimulation` couples the hourly routing path with the daily
population dynamics of :mod:`repro.fleet.population`: capacity follows the
live device count, realised utilisation drives battery cycling, and churn
feeds replacement carbon into the fleet ledger.  With a
:class:`~repro.fleet.dispatch.DispatchPolicy` in the loop, each site also
carries a battery state-of-charge ledger: clean hours charge the packs from
idle headroom, dirty hours serve device load from the packs
(UPS-as-carbon-buffer), and the report gains grid/battery/charge/SoC
series.  For latency-aware questions, :func:`simulate_latency_aware` runs
the same sites and policy on the discrete-event engine of
:mod:`repro.simulation` instead.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.fleet.dispatch import DispatchPolicy, site_packs
from repro.fleet.execution import execute_dispatch
from repro.fleet.reporting import FleetReport
from repro.fleet.sites import FleetSite, SiteCohort
from repro.microservices.calibration import SERVICE_TIME_SIGMA
from repro.simulation.engine import Simulator, Timeout
from repro.simulation.metrics import LatencyRecorder, LatencySummary, summarize
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import ensure_telemetry

#: Service-time distributions :func:`simulate_latency_aware` can draw from.
#: ``deterministic`` reproduces the historical fixed ``1/rate`` service time;
#: the stochastic shapes keep that mean, with the lognormal's log-sigma from
#: the microservice simulator's calibrated variability
#: (:data:`~repro.microservices.calibration.SERVICE_TIME_SIGMA`).
SERVICE_DISTRIBUTIONS = ("deterministic", "exponential", "lognormal")

#: Hours per scheduling timestep of the vectorized path.
HOURS_PER_STEP = 1.0


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
        if self.mean_rps <= 0:
            raise ValueError("mean demand must be positive")
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

    def site_capacity_rps(self, site: FleetSite) -> float:
        """The capacity this policy offers to route toward one site."""
        return site.effective_capacity_rps(self.wear_derate)

    def cohort_capacity_rps(self, entry: SiteCohort) -> float:
        """The capacity this policy offers to route toward one cohort segment."""
        return entry.effective_capacity_rps(self.wear_derate)

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

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
        """Per-request ranking key for the DES path (lower is better).

        Keys are in *grams of CO2e per request* so the DES scheduler can add
        a gram-denominated backlog penalty without mixing units.  Returning
        ``None`` opts out of carbon ranking: the scheduler falls back to
        capacity-weighted rotation (true per-request round-robin).
        """
        return site.marginal_carbon_g_per_request(now_s)


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

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
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

    def request_key(self, site: FleetSite, now_s: float) -> Optional[float]:
        # Intensity ranking expressed in grams: dynamic energy x intensity,
        # without the wear term the marginal-CCI policy adds.
        return site.marginal_carbon_g_for_intensity(
            site.intensity_at(now_s), include_wear=False
        )


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
    *that* device type, with its own independent RNG stream.

    Without a dispatch policy the batteries stay full (the decoupled
    baseline) and the grid/battery/charge series degenerate to
    ``grid == energy``, ``battery == charge == 0``, ``soc == 1``.

    Execution is two-pass.  Pass A is the irreducibly serial day loop:
    capacity follows churn and churn follows realised utilisation, so
    allocation and population stepping must alternate day by day — but the
    purely time-indexed inputs (demand series, grid intensities, marginal
    CCI) are hoisted and precomputed ``block_days`` days at a time
    (bitwise-identical: they are elementwise functions of exactly
    representable hour indices).  Pass B replays the entire dispatch
    timeline afterwards from what Pass A recorded, through the ledger's
    vectorized :meth:`~repro.fleet.dispatch.EnergyLedger.step_block`,
    optionally sharded across ``shards`` worker processes by contiguous
    site ranges (see :mod:`repro.fleet.execution`).  ``block_days`` and
    ``shards`` are pure performance knobs: every setting produces
    bitwise-identical reports, counters, and RNG streams (locked by
    ``tests/fleet/test_execution_identity.py``).

    Pass A never reads the dispatch policy, so its recordings are kept
    after :meth:`run`: :meth:`replay_avoided_g` prices another policy on
    the same fleet by re-running Pass B's dispatch alone.
    """

    def __init__(
        self,
        sites: Sequence[FleetSite],
        policy: RoutingPolicy,
        demand: DiurnalDemand,
        dispatch: Optional[DispatchPolicy] = None,
        telemetry=None,
        block_days: int = 1,
        shards: int = 1,
        audit: bool = False,
    ) -> None:
        if not sites:
            raise ValueError("a fleet needs at least one site")
        if block_days < 1:
            raise ValueError(f"block_days must be >= 1, got {block_days}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.block_days = int(block_days)
        self.shards = int(shards)
        #: Opt-in invariant audit: after Pass B, re-derive the conservation
        #: laws the report must obey (see
        #: :mod:`repro.telemetry.observatory.audit`).  The auditor only
        #: reads finished matrices — results are bitwise-identical either
        #: way, and a disabled audit never even imports the module.
        self.audit = bool(audit)
        self.audit_report = None
        #: The last :meth:`run`'s dispatch inputs — per-pack intensity,
        #: device energy (kWh), physical utilisation and day-start counts —
        #: and its report, for :meth:`replay_avoided_g`.
        self._recorded = None
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
        #: Cohort segments in site-major order — the allocation columns.
        self.segments = site_packs(self.sites)
        #: Site index of each segment, and each site's first segment index
        #: (the ``reduceat`` boundaries for per-site aggregation).
        self._segment_site = np.array(
            [
                site_index
                for site_index, site in enumerate(self.sites)
                for _ in site.cohorts
            ],
            dtype=np.int64,
        )
        starts = []
        cursor = 0
        for site in self.sites:
            starts.append(cursor)
            cursor += len(site.cohorts)
        self._site_starts = np.array(starts, dtype=np.int64)

    def _per_site(self, array: np.ndarray) -> np.ndarray:
        """Sum segment columns into site columns (identity for 1-cohort sites)."""
        return np.add.reduceat(array, self._site_starts, axis=-1)

    def run(self, n_days: int) -> FleetReport:
        """Simulate ``n_days`` of virtual time and return the fleet report."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        n_sites = len(self.sites)
        n_cohorts = len(self.segments)
        hours_per_day = int(round(24.0 / HOURS_PER_STEP))
        step_s = HOURS_PER_STEP * units.SECONDS_PER_HOUR
        n_steps = n_days * hours_per_day

        # Pass A recordings: what the deferred dispatch replay will consume.
        alloc_all = np.empty((n_steps, n_cohorts))
        demand_all = np.empty(n_steps)
        intensity_packs = np.empty((n_steps, n_cohorts))
        utilization_all = np.empty((n_steps, n_cohorts))
        counts_day = np.zeros((n_days, n_cohorts), dtype=np.int64)

        active = np.zeros((n_days, n_sites), dtype=np.int64)
        replacement_g = np.zeros((n_days, n_sites))
        battery_swaps = np.zeros((n_days, n_sites), dtype=np.int64)
        failures = np.zeros((n_days, n_sites), dtype=np.int64)
        deployed = np.zeros((n_days, n_sites), dtype=np.int64)
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
        # per block covers demand, intensity, and marginal CCI for every
        # day in it (calls=0: setup time folds into the phase without
        # inflating its invocation count).
        for block_start in range(0, n_days, self.block_days):
            block_stop = min(block_start + self.block_days, n_days)
            with tele.span("allocate_day", calls=0):
                block_demand, block_intensity, block_marginal = (
                    self._precompute_block(
                        block_start, block_stop, hours_per_day, step_s
                    )
                )
            block_rows = slice(
                block_start * hours_per_day, block_stop * hours_per_day
            )
            demand_all[block_rows] = block_demand
            intensity_packs[block_rows] = block_intensity
            for day in range(block_start, block_stop):
                offset = (day - block_start) * hours_per_day
                local = slice(offset, offset + hours_per_day)
                rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
                with tele.span("allocate_day"):
                    alloc = self._allocate_day(
                        hours_per_day,
                        step_s,
                        block_demand[local],
                        block_intensity[local],
                        block_marginal[local],
                    )
                alloc_all[rows] = alloc
                if tele.enabled:
                    # "Segments touched": (hour, segment) cells the
                    # waterfill actually routed load through this day.
                    tele.count(
                        "routing.waterfill_segments_touched",
                        int(np.count_nonzero(alloc)),
                    )
                # Day-start counts — what the legacy per-day loop's live
                # capability reads saw — recorded before churn moves them.
                counts_day[day] = [
                    entry.cohort.active_count for _, entry in self.segments
                ]

                # Daily population step at the realised utilisation; the
                # same matrix feeds dispatch idle headroom in Pass B.
                with tele.span("step_population"):
                    utilization = self._physical_utilization(alloc)
                    day_step = self._step_population(utilization)
                utilization_all[rows] = utilization
                cohort_active[day] = day_step["active"]
                cohort_replacement_g[day] = day_step["replacement_carbon_g"]
                cohort_swaps[day] = day_step["battery_swaps"]
                cohort_failures[day] = day_step["failures"]
                cohort_deployed[day] = day_step["deployed"]
                cohort_retirements[day] = day_step["retirements"]
                active[day] = self._per_site(day_step["active"])
                replacement_g[day] = self._per_site(
                    day_step["replacement_carbon_g"]
                )
                battery_swaps[day] = self._per_site(day_step["battery_swaps"])
                failures[day] = self._per_site(day_step["failures"])
                deployed[day] = self._per_site(day_step["deployed"])

        if tele.enabled:
            # Which churn engine stepped this run, and how many distinct
            # device-state buckets it peaked at (0 for the per-device
            # reference, which has no bucket structure to count).
            samplers = {
                getattr(entry.cohort, "sampler_name", "device")
                for _, entry in self.segments
            }
            tele.gauge(
                "churn.sampler",
                samplers.pop() if len(samplers) == 1 else "mixed",
            )
            tele.gauge(
                "churn.buckets_peak",
                max(
                    getattr(entry.cohort, "buckets_peak", 0)
                    for _, entry in self.segments
                ),
            )

        # -- Pass B: whole-run vectorized reductions and dispatch replay ---
        cohort_served = alloc_all
        served = self._per_site(alloc_all)
        dropped = demand_all - alloc_all.sum(axis=1)
        intensity_all = intensity_packs[:, self._site_starts]

        # Device energy each cohort needs per hour; site wall energy adds
        # the (never battery-backed) peripheral draw once per site.
        peripheral_kwh = np.array(
            [site.peripheral_power_w for site in self.sites]
        ) * (step_s / units.JOULES_PER_KWH)
        with tele.span("site_energy_kwh", calls=n_days):
            device_kwh = self._cohort_energy_kwh(
                alloc_all, counts_day, hours_per_day, step_s
            )
        cohort_energy_kwh = device_kwh
        total_kwh = self._per_site(device_kwh) + peripheral_kwh
        recorded = (intensity_packs, device_kwh, utilization_all, counts_day)

        clipped_setpoints = 0
        clipped_energy_kwh = 0.0
        shortfall_j = None
        if self.dispatch is None:
            cohort_grid_kwh = device_kwh
            cohort_battery_kwh = np.zeros((n_steps, n_cohorts))
            cohort_charge_kwh = np.zeros((n_steps, n_cohorts))
            cohort_soc = np.ones((n_steps, n_cohorts))
            grid_kwh = total_kwh
            battery_kwh = np.zeros((n_steps, n_sites))
            charge_kwh = np.zeros((n_steps, n_sites))
            soc = np.ones((n_steps, n_sites))
            energy_kwh_all = total_kwh
        else:
            with tele.span("dispatch_day", calls=n_days):
                (
                    battery_j,
                    charge_j,
                    pack_soc,
                    shortfall_j,
                    _,
                    shard_manifests,
                ) = self._run_dispatch(
                    self.dispatch, recorded, step_s, tele.enabled
                )
            for manifest in shard_manifests:
                tele.add_child(manifest)
            cohort_battery_kwh = battery_j / units.JOULES_PER_KWH
            cohort_charge_kwh = charge_j / units.JOULES_PER_KWH
            cohort_soc = pack_soc
            cohort_grid_kwh = device_kwh - cohort_battery_kwh
            battery_kwh = self._per_site(cohort_battery_kwh)
            charge_kwh = self._per_site(cohort_charge_kwh)
            soc = self._site_soc(
                pack_soc, self._pack_capacity_rows(counts_day, hours_per_day)
            )
            grid_kwh = total_kwh - battery_kwh
            energy_kwh_all = grid_kwh + charge_kwh
            clipped_setpoints, clipped_energy_kwh = self._clip_accounting(
                shortfall_j, hours_per_day
            )

        # Operational carbon follows the wall energy the meter saw.
        operational_g = energy_kwh_all * intensity_all

        if tele.enabled and self.dispatch is not None:
            tele.count("dispatch.clipped_setpoints", clipped_setpoints)
            tele.count("dispatch.clipped_kwh", clipped_energy_kwh)
            tele.count(
                "dispatch.fallback_pack_days",
                getattr(self.dispatch, "fallback_pack_days", 0),
            )

        if self.audit:
            from repro.telemetry.observatory.audit import audit_fleet_run

            with tele.span("audit"):
                self.audit_report = audit_fleet_run(
                    alloc=alloc_all,
                    demand=demand_all,
                    capacity_rows=self._physical_capacity_rows(
                        counts_day, hours_per_day
                    ),
                    energy_kwh=energy_kwh_all,
                    grid_kwh=grid_kwh,
                    battery_kwh=battery_kwh,
                    charge_kwh=charge_kwh,
                    total_kwh=total_kwh,
                    cohort_energy_kwh=cohort_energy_kwh,
                    cohort_grid_kwh=cohort_grid_kwh,
                    cohort_battery_kwh=cohort_battery_kwh,
                    cohort_charge_kwh=cohort_charge_kwh,
                    cohort_soc=cohort_soc,
                    min_soc=(
                        getattr(self.dispatch, "min_state_of_charge", None)
                        if self.dispatch is not None
                        else None
                    ),
                    shortfall_j=shortfall_j,
                    clipped_setpoints=clipped_setpoints,
                    clipped_energy_kwh=clipped_energy_kwh,
                    cohort_counts_day=counts_day,
                    cohort_active=cohort_active,
                    cohort_failures=cohort_failures,
                    cohort_retirements=cohort_retirements,
                    cohort_swaps_day=cohort_swaps,
                    cohort_deployed=cohort_deployed,
                    cohort_replacement_g=cohort_replacement_g,
                    cohort_swap_embodied_g=np.array(
                        [
                            units.kg_to_grams(
                                entry.device.battery.embodied_carbon_kgco2e
                            )
                            if entry.device.battery is not None
                            else 0.0
                            for _, entry in self.segments
                        ]
                    ),
                    telemetry=tele if tele.enabled else None,
                )

        report = FleetReport(
            policy_name=self.policy.name,
            site_names=tuple(site.name for site in self.sites),
            hours=np.arange(n_steps, dtype=float) * HOURS_PER_STEP,
            served_rps=served,
            dropped_rps=dropped,
            operational_g=operational_g,
            intensity_g_per_kwh=intensity_all,
            days=np.arange(1, n_days + 1, dtype=float),
            active_devices=active,
            target_devices=np.array(
                [
                    sum(entry.target_size for entry in site.cohorts)
                    for site in self.sites
                ]
            ),
            replacement_carbon_g=replacement_g,
            battery_swaps=battery_swaps,
            failures=failures,
            deployed=deployed,
            step_s=step_s,
            energy_kwh=energy_kwh_all,
            grid_kwh=grid_kwh,
            battery_kwh=battery_kwh,
            charge_kwh=charge_kwh,
            soc=soc,
            cohort_labels=tuple(
                label for site in self.sites for label in site.cohort_labels()
            ),
            cohort_site_index=self._segment_site.copy(),
            cohort_target=np.array(
                [entry.target_size for _, entry in self.segments]
            ),
            cohort_served_rps=cohort_served,
            cohort_energy_kwh=cohort_energy_kwh,
            cohort_grid_kwh=cohort_grid_kwh,
            cohort_battery_kwh=cohort_battery_kwh,
            cohort_charge_kwh=cohort_charge_kwh,
            cohort_soc=cohort_soc,
            cohort_active=cohort_active,
            cohort_replacement_carbon_g=cohort_replacement_g,
            cohort_battery_swaps=cohort_swaps,
            cohort_failures=cohort_failures,
            cohort_deployed=cohort_deployed,
            clipped_setpoints=clipped_setpoints,
            clipped_energy_kwh=clipped_energy_kwh,
        )
        self._recorded = (recorded, report)
        return report

    def replay_avoided_g(self, dispatch: DispatchPolicy) -> float:
        """Carbon (g) ``dispatch`` would have avoided on the last run's fleet.

        Routing and churn never read the dispatch policy, so running the
        same fleet under another policy changes Pass B alone: this replays
        the dispatch over the recorded Pass A inputs and reduces it with
        the report's own :meth:`~repro.fleet.reporting.FleetReport.
        carbon_avoided_g`.  Bitwise-identical to re-simulating the whole
        fleet under ``dispatch``; records no telemetry.
        """
        if self._recorded is None:
            raise RuntimeError("replay_avoided_g needs a finished run()")
        recorded, report = self._recorded
        battery_j, charge_j, *_ = self._run_dispatch(
            dispatch, recorded, report.step_s, telemetry_enabled=False
        )
        return dataclasses.replace(
            report,
            battery_kwh=self._per_site(battery_j / units.JOULES_PER_KWH),
            charge_kwh=self._per_site(charge_j / units.JOULES_PER_KWH),
        ).carbon_avoided_g()

    def _run_dispatch(
        self,
        dispatch: DispatchPolicy,
        recorded: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        step_s: float,
        telemetry_enabled: bool,
    ):
        """Pass B's dispatch: :func:`~repro.fleet.execution.execute_dispatch`
        of ``dispatch`` over the ``(intensity, device_kwh, utilization,
        counts_day)`` Pass A recorded."""
        intensity, device_kwh, utilization, counts_day = recorded
        # Idle headroom is physical: a device the routing derate shed is
        # sitting idle and can charge.
        return execute_dispatch(
            self.sites,
            dispatch,
            intensity,
            device_kwh * units.JOULES_PER_KWH,
            1.0 - utilization,
            counts_day,
            step_s,
            self._site_starts,
            shards=self.shards,
            telemetry_enabled=telemetry_enabled,
        )

    # -- per-day phases ----------------------------------------------------

    def _precompute_block(
        self, start_day: int, stop_day: int, hours_per_day: int, step_s: float
    ):
        """Hoisted time-indexed inputs for days ``[start_day, stop_day)``.

        Demand, per-pack intensity, and marginal CCI depend only on the hour
        index — never on live population state — so one call covers a whole
        block.  Hour timestamps and start hours are exactly representable
        integers and every series is elementwise in them, so any block size
        is bitwise-identical to the historical per-day calls.
        """
        n_cohorts = len(self.segments)
        n_hours = (stop_day - start_day) * hours_per_day
        times_s = (
            start_day * units.SECONDS_PER_DAY + np.arange(n_hours) * step_s
        )
        demand_rps = self.demand.series(n_hours, start_hour=start_day * 24.0)
        intensity = np.empty((n_hours, n_cohorts))
        marginal = np.empty((n_hours, n_cohorts))
        site_intensity: Dict[int, np.ndarray] = {}
        for j, (site, entry) in enumerate(self.segments):
            site_index = int(self._segment_site[j])
            if site_index not in site_intensity:
                site_intensity[site_index] = site.intensities_at(times_s)
            intensity[:, j] = site_intensity[site_index]
            marginal[:, j] = entry.marginal_carbon_g_for_intensity(intensity[:, j])
        return demand_rps, intensity, marginal

    def _allocate_day(
        self,
        hours_per_day: int,
        step_s: float,
        demand_rps: np.ndarray,
        intensity: np.ndarray,
        marginal: np.ndarray,
    ) -> np.ndarray:
        """Phase 1: route one day of hourly demand across the live segments.

        Only the capacity matrix is computed here — it reads the *live*
        (churn-following) cohort populations, which is exactly why this
        phase cannot hoist with the block precompute that feeds it.
        """
        n_cohorts = len(self.segments)
        capacity = np.empty((hours_per_day, n_cohorts))
        for j, (_, entry) in enumerate(self.segments):
            capacity[:, j] = self.policy.cohort_capacity_rps(entry)
        alloc = self.policy.allocate(demand_rps, capacity, intensity, marginal)
        self._validate_allocation(alloc, demand_rps, capacity)
        if self.telemetry.enabled and self.policy.wear_derate > 0:
            # Request capacity the wear derate withheld from routing today
            # (rps x seconds = requests) — the shedding that is otherwise
            # invisible in the report's served/dropped series.
            physical = sum(entry.capacity_rps for _, entry in self.segments)
            withheld_rps = max(0.0, physical - float(capacity[0].sum()))
            self.telemetry.count(
                "routing.wear_shed_requests", withheld_rps * hours_per_day * step_s
            )
        return alloc

    def _cohort_energy_kwh(
        self,
        alloc: np.ndarray,
        counts_day: np.ndarray,
        hours_per_day: int,
        step_s: float,
    ) -> np.ndarray:
        """Device-only energy (kWh) each cohort needs per hour, whole run.

        The vectorized twin of per-day
        :meth:`~repro.fleet.sites.SiteCohort.device_power_w` calls: idle
        floor follows the recorded day-start counts, each served request
        adds its dynamic energy.  Same per-element expression, so bitwise-
        identical to the historical per-day column loop.
        """
        if np.any(alloc < 0):
            raise ValueError("served rate must be non-negative")
        idle_w = np.array([entry.idle_power_w for _, entry in self.segments])
        dynamic_j = np.array(
            [entry.dynamic_energy_per_request_j for _, entry in self.segments]
        )
        counts_rows = np.repeat(
            counts_day.astype(float), hours_per_day, axis=0
        )
        power_w = counts_rows * idle_w[None, :] + alloc * dynamic_j[None, :]
        return power_w * step_s / units.JOULES_PER_KWH

    def _physical_capacity_rows(
        self, counts_day: np.ndarray, hours_per_day: int
    ) -> np.ndarray:
        """Per-``(hour, segment)`` physical request capacity (requests/s).

        Rebuilt from the recorded day-start counts — the same counts the
        allocation saw — so the audit's feasibility check compares against
        the capacity that actually applied, not today's live population.
        """
        n_days = counts_day.shape[0]
        capacity_day = np.empty((n_days, len(self.segments)))
        for j, (_, entry) in enumerate(self.segments):
            for day in range(n_days):
                capacity_day[day, j] = entry.capacity_rps_at(
                    int(counts_day[day, j])
                )
        return np.repeat(capacity_day, hours_per_day, axis=0)

    def _pack_capacity_rows(
        self, counts_day: np.ndarray, hours_per_day: int
    ) -> np.ndarray:
        """Per-``(hour, pack)`` battery capacity from the recorded day counts."""
        n_days = counts_day.shape[0]
        capacity_day = np.empty((n_days, len(self.segments)))
        for j, (_, entry) in enumerate(self.segments):
            for day in range(n_days):
                capacity_day[day, j] = entry.battery_capacity_j_at(
                    int(counts_day[day, j])
                )
        return np.repeat(capacity_day, hours_per_day, axis=0)

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
        clip_tol_j = 1e-9
        infeasible = shortfall_j > clip_tol_j
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

    def _site_soc(
        self, pack_soc: np.ndarray, capacity_rows: np.ndarray
    ) -> np.ndarray:
        """Site-level SoC series: capacity-weighted mean over the site's packs.

        Single-pack sites pass their pack's fraction through untouched (the
        historical per-site series, bit for bit); mixed sites weight by the
        per-row pack capacities via segment-wise ``np.add.reduceat``,
        falling back to a plain mean on rows where no pack holds energy.
        ``capacity_rows`` is the ``(n_steps, n_packs)`` capacity matrix from
        :meth:`_pack_capacity_rows`.
        """
        n_packs = pack_soc.shape[1]
        sizes = np.diff(np.append(self._site_starts, n_packs))
        weighted = np.add.reduceat(
            pack_soc * capacity_rows, self._site_starts, axis=-1
        )
        totals = np.add.reduceat(capacity_rows, self._site_starts, axis=-1)
        plain = np.add.reduceat(pack_soc, self._site_starts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(
                totals > 0, weighted / totals, plain / sizes[None, :]
            )
        single = sizes == 1
        if np.any(single):
            out[:, single] = pack_soc[:, self._site_starts[single]]
        return out

    def _site_soc_loop(
        self, pack_soc: np.ndarray, capacity_rows: np.ndarray
    ) -> np.ndarray:
        """Reference per-site loop for :meth:`_site_soc` (kept for tests).

        Accumulates each site's weighted sum left to right — the same
        reduction order ``np.add.reduceat`` uses — so the vectorized path
        can be pinned bitwise against it on mixed and single-pack sites.
        """
        n_sites = len(self.sites)
        n_packs = pack_soc.shape[1]
        out = np.empty((pack_soc.shape[0], n_sites))
        for site_index in range(n_sites):
            start = int(self._site_starts[site_index])
            stop = (
                int(self._site_starts[site_index + 1])
                if site_index + 1 < n_sites
                else n_packs
            )
            if stop - start == 1:
                out[:, site_index] = pack_soc[:, start]
                continue
            weighted = pack_soc[:, start] * capacity_rows[:, start]
            total = capacity_rows[:, start].copy()
            plain = pack_soc[:, start].copy()
            for j in range(start + 1, stop):
                weighted = weighted + pack_soc[:, j] * capacity_rows[:, j]
                total = total + capacity_rows[:, j]
                plain = plain + pack_soc[:, j]
            with np.errstate(invalid="ignore", divide="ignore"):
                out[:, site_index] = np.where(
                    total > 0, weighted / total, plain / (stop - start)
                )
        return out

    def _physical_utilization(self, alloc: np.ndarray) -> np.ndarray:
        """Per-``(hour, segment)`` utilisation against *non-derated* capacity.

        Battery cycling and charge headroom both follow what the devices
        physically do, so utilisation is measured against each cohort's
        :attr:`~repro.fleet.sites.SiteCohort.capacity_rps` regardless of any
        routing-level wear derate.
        """
        physical = np.array([entry.capacity_rps for _, entry in self.segments])
        with np.errstate(invalid="ignore", divide="ignore"):
            util = np.where(physical > 0, alloc / physical, 0.0)
        return np.clip(util, 0.0, 1.0)

    def _step_population(self, utilization: np.ndarray) -> Dict[str, np.ndarray]:
        """Phase 4: one day of churn per cohort at its realised utilisation.

        Takes the day's ``(hours, segment)`` utilisation matrix directly so
        the caller can share one :meth:`_physical_utilization` pass between
        churn and the recorded dispatch idle headroom.
        """
        n_cohorts = len(self.segments)
        out = {
            "active": np.zeros(n_cohorts, dtype=np.int64),
            "replacement_carbon_g": np.zeros(n_cohorts),
            "battery_swaps": np.zeros(n_cohorts, dtype=np.int64),
            "failures": np.zeros(n_cohorts, dtype=np.int64),
            "deployed": np.zeros(n_cohorts, dtype=np.int64),
            "retirements": np.zeros(n_cohorts, dtype=np.int64),
        }
        for j, (_, entry) in enumerate(self.segments):
            mean_util = float(np.mean(utilization[:, j]))
            step = entry.cohort.step(1.0, utilization=mean_util)
            out["active"][j] = step.active
            out["replacement_carbon_g"][j] = step.replacement_carbon_g
            out["battery_swaps"][j] = step.battery_swaps
            out["failures"][j] = step.failures
            out["deployed"][j] = step.deployed
            out["retirements"][j] = step.retirements
        return out

    @staticmethod
    def _validate_allocation(
        alloc: np.ndarray, demand: np.ndarray, capacity: np.ndarray
    ) -> None:
        tol = 1e-6
        if np.any(alloc < -tol):
            raise ValueError("policy produced a negative allocation")
        if np.any(alloc > capacity + tol):
            raise ValueError("policy allocated beyond segment capacity")
        if np.any(alloc.sum(axis=1) > demand * (1 + tol) + tol):
            raise ValueError("policy served more than the offered demand")


def run_policy_comparison(
    site_builder,
    policies: Sequence[RoutingPolicy],
    demand: DiurnalDemand,
    n_days: int,
) -> Dict[str, FleetReport]:
    """Run the same scenario under several policies with identical fleets.

    ``site_builder`` is a zero-argument callable returning a *fresh* list of
    sites — each policy must see an identical, independently-seeded fleet,
    otherwise population RNG state would leak across runs and the comparison
    would not be apples-to-apples.
    """
    reports: Dict[str, FleetReport] = {}
    for policy in policies:
        simulation = FleetSimulation(site_builder(), policy, demand)
        reports[policy.name] = simulation.run(n_days)
    return reports


# ---------------------------------------------------------------------------
# DES-backed latency-aware path
# ---------------------------------------------------------------------------


def _effective_device_slots(policy: RoutingPolicy, site: FleetSite) -> int:
    """Concurrent request slots the DES path offers for one site.

    The wear-derated capacity divided back into whole devices; rounded (not
    truncated) so the float division ``active * rate * 1.0 / rate`` cannot
    drop a device to representation error when the derate is off.  Mixed
    sites divide by the target-weighted mean per-device rate, so the slot
    count still approximates the live device count.
    """
    return max(
        1,
        int(
            round(
                policy.site_capacity_rps(site) / site.nominal_requests_per_device_s
            )
        ),
    )


def simulate_latency_aware(
    sites: Sequence[FleetSite],
    policy: RoutingPolicy,
    demand_rps: float,
    duration_s: float = 60.0,
    seed: int = 0,
    queue_penalty_g: float = 5e-6,
    service_distribution: str = "deterministic",
) -> Tuple[LatencySummary, Dict[str, int]]:
    """Serve a Poisson request stream through the sites on the DES engine.

    Where the vectorized path treats each hour as a fluid allocation, this
    path models individual requests: exponential inter-arrivals, per-site
    FIFO service at ``requests_per_device_s`` per device, and the site's
    network RTT added to every response.  Each arrival is routed by the
    policy's :meth:`~RoutingPolicy.request_key` (grams per request) plus
    ``queue_penalty_g`` grams per already-queued request, so carbon-greedy
    policies shed load to the next-cleanest site once the clean site backs
    up.  The default penalty is on the order of a phone-cloudlet marginal
    (a few 1e-6 g/request), so spill happens after a handful of queued
    requests rather than after a multi-second backlog.  Policies whose key
    is ``None`` (round-robin) rotate: each request goes to the site with
    the lowest served-count-to-capacity ratio.

    ``service_distribution`` selects how per-request service times are
    drawn (:data:`SERVICE_DISTRIBUTIONS`): the ``"deterministic"`` default
    keeps the fixed ``1/requests_per_device_s``; ``"exponential"`` and
    ``"lognormal"`` draw from a seeded stream with the same mean, the
    lognormal shaped by the microservice simulator's calibrated
    variability — so the probe's tail percentiles reflect per-request
    jitter, not just queueing.

    Returns the overall latency summary and the per-site served counts.
    """
    if demand_rps <= 0:
        raise ValueError("demand must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if queue_penalty_g < 0:
        raise ValueError("queue penalty must be non-negative")
    if service_distribution not in SERVICE_DISTRIBUTIONS:
        known = ", ".join(SERVICE_DISTRIBUTIONS)
        raise ValueError(
            f"unknown service distribution {service_distribution!r}; "
            f"expected one of: {known}"
        )
    simulator = Simulator()
    streams = RandomStreams(seed=seed)
    recorder = LatencyRecorder()
    served_by_site = {site.name: 0 for site in sites}
    routed_by_site = {site.name: 0 for site in sites}

    from repro.simulation.resources import Resource

    # The DES path sees the same (wear-derated) capacity the hourly path
    # routes against: a policy shedding load from a worn cohort also offers
    # fewer concurrent request slots here.
    effective_devices = {
        site.name: _effective_device_slots(policy, site) for site in sites
    }
    pools = {
        site.name: Resource(
            simulator, capacity=effective_devices[site.name], name=site.name
        )
        for site in sites
    }
    service_s = {
        site.name: 1.0 / site.nominal_requests_per_device_s for site in sites
    }

    # The lognormal factor stream has mean exp(sigma^2/2); the correction
    # keeps the drawn mean at 1/rate so distributions differ in shape only.
    lognormal_mean_correction = float(np.exp(-0.5 * SERVICE_TIME_SIGMA**2))

    def draw_service_s(site: FleetSite) -> float:
        mean = service_s[site.name]
        if service_distribution == "exponential":
            return streams.exponential(f"service@{site.name}", mean)
        if service_distribution == "lognormal":
            factor = streams.lognormal_factor(
                f"service@{site.name}", SERVICE_TIME_SIGMA
            )
            return mean * factor * lognormal_mean_correction
        return mean

    def route(now_s: float) -> FleetSite:
        keys = [policy.request_key(site, now_s) for site in sites]
        if any(key is None for key in keys):
            # Capacity-weighted rotation: send the request to the site that
            # has served the smallest share of its capacity so far.
            shares = [
                routed_by_site[site.name]
                / (
                    effective_devices[site.name]
                    * site.nominal_requests_per_device_s
                )
                for site in sites
            ]
            best = int(np.argmin(shares))
        else:
            penalized = [
                key + pools[site.name].queue_length * queue_penalty_g
                for key, site in zip(keys, sites)
            ]
            best = int(np.argmin(penalized))
        routed_by_site[sites[best].name] += 1
        return sites[best]

    def handle(site: FleetSite, start_s: float):
        pool = pools[site.name]
        yield pool.acquire()
        yield Timeout(draw_service_s(site))
        pool.release()
        yield Timeout(site.network_rtt_s)
        recorder.record("request", simulator.now - start_s)
        served_by_site[site.name] += 1

    spawned = {"count": 0}

    def arrivals():
        while simulator.now < duration_s:
            yield Timeout(streams.exponential("arrivals", 1.0 / demand_rps))
            if simulator.now >= duration_s:
                break
            site = route(simulator.now)
            spawned["count"] += 1
            simulator.spawn(handle(site, simulator.now), name=f"req@{site.name}")

    simulator.spawn(arrivals(), name="arrivals")
    simulator.run()
    summaries = summarize(recorder, offered={"request": spawned["count"]})
    if "request" not in summaries:
        raise RuntimeError("no requests completed; increase duration or demand")
    return summaries["request"], served_by_site
