"""Coupled energy dispatch: per-device-type battery ledgers for the fleet loop.

The paper studies smart charging (Section 4.3) and cluster operation as
separate experiments.  This module closes that gap — UPS-as-carbon-buffer:
every :class:`~repro.fleet.population.DeviceCohort` of every
:class:`~repro.fleet.sites.FleetSite` carries its own aggregate
state-of-charge ledger entry (one pack fraction per device type, since every
device of a type holds its own battery at the cohort-wide SoC — a Pixel 3A
pack and a Nexus 4 pack at the same site have different capacities, charge
rates, and charge-time percentiles, so they are tracked separately), and a
:class:`DispatchPolicy` co-decides with the routing policy, hour by hour,
whether each cohort's served load draws from the grid or from its packs and
whether its idle headroom charges them — so clean hours fill batteries that
dirty hours drain.  Ledger columns are *packs* — ``(site, cohort)`` pairs in
site-major order (:attr:`PackTable.entries`); a fleet of single-cohort sites
has exactly one pack per site.

Dispatch runs as a replay: the fleet loop routes and churns first, filling
the run's report, and :func:`replay_dispatch` then steps the policy and the
ledger over the report's fields, each day's start-of-day device count per
pack among them.  Every count-dependent term — pack capacity, charge rate,
a forecast policy's demand estimate — is one array product of those counts
with a :class:`PackTable` of per-device constants, never read from the run's
:class:`~repro.fleet.population.ChurnTable`, which by then has moved on.

The decision reuses the paper's charging heuristic at trace level
(:func:`repro.charging.smart_charging.threshold_from_intensities`): the
threshold for each day is a percentile of the *previous* day's intensities,
and hours at or below it are "clean" (charge) while hours above it are
"dirty" (serve from battery).  The ledger enforces the physics the per-device
charging simulator enforces — SoC floor and ceiling, rated charge power,
never charging and discharging simultaneously — but vectorized across sites
so the fleet's hot loop stays a handful of NumPy ops per hour.

Battery-wear accounting: the churn model already cycle-counts *every*
device-joule through the pack (:meth:`~repro.fleet.population.ChurnTable.step`
converts the realised per-device draw into daily equivalent full cycles
regardless of charging policy — the phones run through their batteries
either way), so dispatch discharge adds no cycles beyond that convention
and the replacement-carbon ledger needs no dispatch-specific term.  The
*dollars* side additionally prices the dispatched throughput as pro-rated
pack wear (:meth:`~repro.economics.cost.FleetCostModel.battery_wear_cost_usd`),
surfacing the marginal wear cost that the discrete swap counters only
realise after a full cycle-life crossing.

* :class:`PackTable` — the one home of every per-device-type constant:
  one ``(C,)`` array per quantity (site index, request rate, target, site
  rate, idle power, dynamic energy and battery-wear carbon per request,
  battery joules, charge watts, charge percentile), built once per fleet
  simulation or latency probe, with :meth:`PackTable.marginal_g` for the
  routing key;
* :class:`EnergyLedger` — the mutable SoC state plus the per-hour physics
  (:meth:`EnergyLedger.step_block`);
* :class:`DispatchPolicy` — one hook, :meth:`DispatchPolicy.day_modes`:
  given the day index, the pack table, the previous and current day's
  intensities, the recorded counts and the ledger's start-of-day SoC, the
  day's modes (a stateful policy also resets in
  :meth:`DispatchPolicy.start_run`);
* :func:`replay_dispatch` — the fleet loop's dispatch pass: it builds the
  run's only ledger and steps it and one policy day by day over a run's
  report fields;
* :class:`CarbonBufferDispatch` — the percentile-threshold policy;
* :class:`ForecastDispatch` — the forecast-aware policy: a
  :class:`~repro.forecast.planner.LookaheadPlanner` ranks every pack's
  forecast window in one batched pass and emits per-hour setpoints; the
  windows come from one :mod:`repro.forecast.models` call per refresh
  (one window per site and start, gathered from the run's hourly truth
  table); hours the model cannot forecast hold;
* :func:`estimate_site_savings` — the detached per-device charging study run
  on one site's device/trace/load context, used by the scenario runner's
  ``coupling="estimate"`` mode so the estimate and the coupled dispatch share
  one trace-level decision path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.charging.smart_charging import (
    charge_percentile,
    threshold_from_intensities,
)
from repro.fleet.population import DeviceCohort
from repro.fleet.sites import FleetSite

if TYPE_CHECKING:  # imported lazily at runtime: repro.forecast imports the
    # DISPATCH_* constants from this module, so a top-level import would cycle.
    from repro.forecast.models import ForecastModel

#: Per-hour dispatch modes: hold (grid serves, batteries untouched), charge
#: (grid serves *and* fills packs), discharge (packs serve device load).
DISPATCH_HOLD = 0
DISPATCH_CHARGE = 1
DISPATCH_DISCHARGE = -1


@dataclass(frozen=True, eq=False)
class PackTable:
    """Every pack's per-device constants, one ``(C,)`` array per quantity.

    The single home of the fleet's per-device-type quantities.  Columns are
    the ``(site, cohort)`` packs in site-major order (``entries``); a fleet
    of single-cohort sites has one pack per site in site order.  Each
    count-dependent capability is one product with a day's counts —
    ``counts * packs.battery_j`` is the packs' aggregate battery capacity,
    ``counts * packs.requests_per_device_s`` their request capacity — and
    equals the scalar ``count * constant`` of each pack bit for bit.
    Battery-less packs carry ``0.0`` battery joules and charge watts and a
    ``nan`` charge percentile.
    """

    sites: Tuple[FleetSite, ...]
    #: The :class:`~repro.fleet.population.DeviceCohort` of each column.
    entries: Tuple[DeviceCohort, ...]
    #: Index into ``sites`` of each pack's site, and each site's first column.
    site_index: np.ndarray
    site_starts: np.ndarray
    requests_per_device_s: np.ndarray
    #: Each pack's target deployment (devices).
    target: np.ndarray
    #: Per-site request rate of each pack's site: the pack's own rate at a
    #: one-pack site, the target-weighted mean rate at a mixed one.
    site_rate: np.ndarray
    #: Per-device idle draw (W).
    idle_w: np.ndarray
    #: Dynamic energy (J) of one request on one device: the idle-to-peak
    #: power swing amortised over the service rate.
    dynamic_j: np.ndarray
    #: Embodied battery carbon (g) amortised per request served; ``0.0``
    #: for a battery-less pack or a cohort that never swaps batteries (its
    #: successor device arrives carbon-free, per the paper's convention).
    wear_g: np.ndarray
    #: Per-device battery capacity (J) and rated charge power (W).
    battery_j: np.ndarray
    charge_w: np.ndarray
    has_battery: np.ndarray
    #: The percentile-threshold heuristic's percentile for each pack
    #: (:func:`~repro.charging.smart_charging.charge_percentile`).
    charge_percentile: np.ndarray

    @classmethod
    def from_sites(cls, sites: Sequence[FleetSite]) -> "PackTable":
        """The table of every ``(site, cohort)`` pack of ``sites``."""
        sites = tuple(sites)
        entries = tuple(entry for site in sites for entry in site.cohorts)
        batteries = [entry.device.battery for entry in entries]
        rate = [entry.requests_per_device_s for entry in entries]
        idle = [entry.device.power_model.idle_power_w for entry in entries]
        dynamic = [
            (entry.device.power_model.peak_power_w - idle_w) / rate_rps
            for entry, idle_w, rate_rps in zip(entries, idle, rate)
        ]
        wear = [
            0.0
            if battery is None or not entry.policy.swap_batteries
            else units.kg_to_grams(battery.embodied_carbon_kgco2e)
            / (battery.cycle_life * battery.capacity_joules)
            * dynamic_j
            for entry, battery, dynamic_j in zip(entries, batteries, dynamic)
        ]
        site_rate = []
        for site in sites:
            if len(site.cohorts) == 1:
                mean = site.cohorts[0].requests_per_device_s
            else:
                mean = sum(
                    entry.target_size * entry.requests_per_device_s
                    for entry in site.cohorts
                ) / sum(entry.target_size for entry in site.cohorts)
            site_rate += [mean] * len(site.cohorts)
        return cls(
            sites=sites,
            entries=entries,
            site_index=np.array(
                [index for index, site in enumerate(sites) for _ in site.cohorts],
                dtype=np.int64,
            ),
            site_starts=np.cumsum(
                [0] + [len(site.cohorts) for site in sites[:-1]], dtype=np.int64
            ),
            requests_per_device_s=np.array(rate, dtype=float),
            target=np.array([e.target_size for e in entries], dtype=np.int64),
            site_rate=np.array(site_rate, dtype=float),
            idle_w=np.array(idle, dtype=float),
            dynamic_j=np.array(dynamic, dtype=float),
            wear_g=np.array(wear, dtype=float),
            battery_j=np.array(
                [0.0 if b is None else b.capacity_joules for b in batteries]
            ),
            charge_w=np.array(
                [0.0 if b is None else b.charge_rate_w for b in batteries]
            ),
            has_battery=np.array([b is not None for b in batteries], dtype=bool),
            charge_percentile=np.array(
                [
                    np.nan
                    if battery is None
                    else charge_percentile(
                        battery,
                        entry.device.average_power_w(entry.load_profile),
                    )
                    for entry, battery in zip(entries, batteries)
                ],
                dtype=float,
            ),
        )

    def __len__(self) -> int:
        return self.site_index.shape[0]

    def marginal_g(
        self, intensity: np.ndarray, include_wear: bool = True
    ) -> np.ndarray:
        """Marginal carbon (g) of one request on each pack at ``intensity``.

        The per-device-type term carbon-aware routing ranks: dynamic energy
        per request times grid intensity, plus (optionally) the amortised
        battery-wear carbon.  ``intensity`` is ``(..., C)``, one column per
        pack; ``include_wear=False`` gives the energy-only marginal.
        """
        grams = self.dynamic_j * intensity / units.JOULES_PER_KWH
        if include_wear:
            grams = grams + self.wear_g
        return grams


class DispatchPolicy(abc.ABC):
    """Decides, per hour and pack, how the battery ledger participates."""

    name: str = "dispatch"
    #: SoC floor the ledger never discharges below (backup-power margin).
    min_state_of_charge: float = 0.25

    @abc.abstractmethod
    def day_modes(
        self,
        day: int,
        packs: PackTable,
        previous_intensity: Optional[np.ndarray],
        intensity: np.ndarray,
        counts: np.ndarray,
        soc: np.ndarray,
    ) -> np.ndarray:
        """Dispatch mode per ``(hour, pack)`` for day ``day`` of a run.

        ``packs`` is the run's :class:`PackTable`.  ``intensity`` is the
        day's ``(H, C)`` per-pack intensity matrix and
        ``previous_intensity`` the previous day's (``None`` on day 0).
        ``counts`` (the day-start device count of each pack) and ``soc``
        (the ledger's state of charge at the start of the day) have shape
        ``(C,)``.  Returns an ``(H, C)`` int8 array of ``DISPATCH_*`` modes.
        """

    def start_run(
        self, packs: PackTable, n_steps: int, truth: Optional[np.ndarray] = None
    ) -> None:
        """Begin a run of ``n_steps`` hours over ``packs``.

        :func:`replay_dispatch` calls this once before a run's first
        :meth:`day_modes`.  A policy that keeps state across days resets it
        here; the default keeps none.  ``truth`` is the run's
        :func:`~repro.forecast.models.hourly_truth` table when another
        replay of the same run already built it; only forecast policies
        read it.
        """


class CarbonBufferDispatch(DispatchPolicy):
    """The paper's percentile heuristic applied per device-type pack.

    Each day, each pack's threshold is the P-th percentile of its site's
    previous-day intensities (P from *that device type's* charge-time
    fraction plus the heuristic's default margin, the table's
    ``charge_percentile`` — a Nexus 4 pack needs a different charge window
    than a Pixel 3A pack on the same grid).  Hours at or below the
    threshold charge the pack from idle headroom; hours above it serve that
    cohort's device load from the pack down to ``min_state_of_charge``.
    With no previous day, or no battery, a pack holds.
    """

    name = "carbon-buffer"

    def __init__(self, min_state_of_charge: float = 0.25) -> None:
        if not 0.0 <= min_state_of_charge < 1.0:
            raise ValueError("min state of charge must be within [0, 1)")
        self.min_state_of_charge = min_state_of_charge

    def day_modes(
        self, day, packs, previous_intensity, intensity, counts, soc
    ) -> np.ndarray:
        modes = np.full(intensity.shape, DISPATCH_HOLD, dtype=np.int8)
        if previous_intensity is None:
            return modes
        thresholds = threshold_from_intensities(
            previous_intensity, packs.charge_percentile
        )
        # nan thresholds compare False on both sides, leaving HOLD in place.
        modes[intensity <= thresholds] = DISPATCH_CHARGE
        modes[intensity > thresholds] = DISPATCH_DISCHARGE
        return modes


class ForecastDispatch(DispatchPolicy):
    """Forecast-aware lookahead dispatch: planned setpoints, not thresholds.

    Each day (and each ``refresh_h``-hour boundary within it) the policy asks
    its :class:`~repro.forecast.models.ForecastModel` for an
    ``horizon_h``-hour intensity window per site and has a
    :class:`~repro.forecast.planner.LookaheadPlanner` rank it into hourly
    charge/discharge setpoints: serve the dirtiest forecast hours from the
    pack, fund them by charging at the cleanest — a receding-horizon plan of
    which only the hours up to the next refresh execute.  Hours the model
    cannot forecast hold, as the paper's previous-day heuristic holds on a
    day with no history: a persistence forecaster's blind first day holds
    every pack, and a window that goes blind mid-day keeps its planned
    prefix and holds the rest.  Battery-less and empty packs always hold.

    A day is planned in one batched pass over every battery-backed,
    non-empty pack: carried plan tails first, then, per refresh, one
    :meth:`~repro.forecast.models.ForecastModel.windows` call and one
    ``(packs, horizon)`` planner call.  Packs that plan again the same day
    (a carried tail or a refresh chunk that ends before midnight) take one
    vectorized SoC projection that seeds that next refresh; a plan that
    reaches midnight is not projected, so at ``refresh_h == horizon_h ==
    24`` no pack projects.  :meth:`start_run` builds the run's
    :func:`~repro.forecast.models.hourly_truth` table once (every site's
    trace over the run plus one horizon), or takes the one another replay
    of the same run built (:attr:`truth`), and each refresh asks the model
    for the distinct ``(site, start hour)`` windows of its rows only: every
    pack at a site plans against that same forecast of their shared grid,
    while SoC and capacity are per pack.

    Plan tails (a ``refresh_h`` window spanning midnight) carry across
    days, so the policy keeps state across one run; a pack that does not
    plan on a day drops its tail, and :meth:`start_run` resets it, so one
    policy object can back repeated runs.

    ``demand_fraction`` is the planning estimate of utilisation: each hour's
    device-energy demand is estimated at that fraction of the pack's
    capacity at the day's recorded device count, and charge hours are
    assumed to find ``1 - demand_fraction`` of the fleet idle.  The
    executing ledger uses realised values, so the estimate only shapes the
    plan, never the accounting.
    """

    name = "forecast"

    def __init__(
        self,
        model: "ForecastModel",
        horizon_h: int = 24,
        refresh_h: int = 24,
        min_state_of_charge: float = 0.25,
        demand_fraction: float = 0.5,
    ) -> None:
        from repro.forecast.planner import LookaheadPlanner

        if horizon_h < 1:
            raise ValueError(f"forecast horizon must be >= 1 hour, got {horizon_h}")
        if not 1 <= refresh_h <= horizon_h:
            raise ValueError(
                f"refresh interval must be within [1, horizon_h={horizon_h}]; "
                f"got {refresh_h}"
            )
        if not 0.0 < demand_fraction <= 1.0:
            raise ValueError(f"demand fraction must be in (0, 1], got {demand_fraction}")
        if not 0.0 <= min_state_of_charge < 1.0:
            raise ValueError("min state of charge must be within [0, 1)")
        self.model = model
        self.horizon_h = horizon_h
        self.refresh_h = refresh_h
        self.min_state_of_charge = min_state_of_charge
        self.demand_fraction = demand_fraction
        self.planner = LookaheadPlanner(min_state_of_charge=min_state_of_charge)
        #: Unexecuted plan tails carried across day boundaries: when
        #: ``refresh_h`` spans multiple days, a plan's hours beyond midnight
        #: wait here and execute before the next forecast refresh — planning
        #: cadence follows ``refresh_h``, not the simulation's day batching.
        self._pending: Dict[int, np.ndarray] = {}
        #: Per-run observability counter: (pack, day) pairs held because the
        #: model was blind for the whole day (e.g. a persistence forecast's
        #: first day).  Battery-less packs, which never plan, do not count.
        self.fallback_pack_days = 0
        #: Per-run observability counter: pack windows the planner planned
        #: (one per pack per forecast refresh).
        self.planned_windows = 0
        #: Per-run observability counter: pack windows whose SoC was
        #: projected to seed a later refresh of the same day (carried tails
        #: and refresh chunks that end before midnight).
        self.projected_windows = 0
        #: Per-run observability counter: distinct ``(site, start)`` windows
        #: the model produced, blind ones included (packs at one site share
        #: theirs).
        self.forecast_windows = 0
        #: The run's ``(sites, hours)`` true intensity table, from
        #: :meth:`start_run`.
        self.truth: Optional[np.ndarray] = None

    def start_run(self, packs, n_steps, truth=None):
        from repro.forecast.models import hourly_truth

        self._pending = {}
        self.fallback_pack_days = 0
        self.planned_windows = 0
        self.projected_windows = 0
        self.forecast_windows = 0
        shape = (len(packs.sites), n_steps + self.horizon_h)
        if truth is None:
            truth = hourly_truth([site.trace for site in packs.sites], shape[1])
        elif truth.shape != shape:
            raise ValueError(
                f"truth table has shape {truth.shape}; this run needs {shape}"
            )
        self.truth = truth

    def day_modes(
        self, day, packs, previous_intensity, intensity, counts, soc
    ) -> np.ndarray:
        if self.truth is None:
            raise RuntimeError("ForecastDispatch.day_modes needs start_run() first")
        hours = intensity.shape[0]
        modes = np.full(intensity.shape, DISPATCH_HOLD, dtype=np.int8)
        day_start_h = day * hours
        # Every pack's planning inputs in one pass: capacity and charge
        # step from the day's counts, and the estimated hourly device
        # energy (idle floor plus dynamic energy) at ``demand_fraction`` of
        # the packs' request capacity.  The report digests lock the order
        # of these operations.
        capacity_j = counts * packs.battery_j
        charge_step_j = (
            counts * packs.charge_w * (1.0 - self.demand_fraction)
            * units.SECONDS_PER_HOUR
        )
        served_rps = self.demand_fraction * (counts * packs.requests_per_device_s)
        power_w = counts * packs.idle_w + served_rps * packs.dynamic_j
        demand_step_j = np.maximum(0.0, power_w) * units.SECONDS_PER_HOUR

        # Only battery-backed, non-empty packs plan; the rest hold and drop
        # any plan tail they carried, so a refilled pack plans afresh.
        planning = packs.has_battery & (capacity_j > 0)
        for pack in np.flatnonzero(~planning).tolist():
            self._pending.pop(pack, None)
        planned_packs = np.flatnonzero(planning)
        if not planned_packs.size:
            return modes
        capacity_j = capacity_j[planned_packs]
        charge_step_j = charge_step_j[planned_packs]
        demand_step_j = demand_step_j[planned_packs]
        plan_soc = np.asarray(soc, dtype=float)[planned_packs]
        site_index = packs.site_index[planned_packs]
        planned = np.full((planned_packs.size, hours), DISPATCH_HOLD, dtype=np.int8)
        covered = self._take_pending(planned_packs, planned)
        demand_j = np.broadcast_to(
            demand_step_j[:, None], (planned_packs.size, max(hours, self.horizon_h))
        )
        # A carried tail that ends before midnight seeds today's first refresh.
        again = np.flatnonzero((covered > 0) & (covered < hours))
        self._project(
            again, planned[again], demand_j, capacity_j, charge_step_j, plan_soc
        )

        offsets = np.arange(self.refresh_h)
        while True:
            rows = np.flatnonzero(covered < hours)
            if not rows.size:
                break
            forecast, seeing = self._windows(
                site_index[rows], day_start_h + covered[rows]
            )
            # A blind window keeps any planned prefix and holds the rest.
            blind = rows[~seeing]
            self.fallback_pack_days += int(np.count_nonzero(covered[blind] == 0))
            covered[blind] = hours
            rows = rows[seeing]
            if not rows.size:
                continue
            chunk = self.planner.plan_window(
                forecast[seeing],
                demand_j[rows, : self.horizon_h],
                capacity_j[rows],
                charge_step_j[rows],
                plan_soc[rows],
            )[:, : self.refresh_h]
            self.planned_windows += rows.size
            take = np.minimum(self.refresh_h, hours - covered[rows])
            executes = offsets < take[:, None]
            row_index = np.broadcast_to(rows[:, None], chunk.shape)
            hour_index = covered[rows][:, None] + offsets
            planned[row_index[executes], hour_index[executes]] = chunk[executes]
            for row in np.flatnonzero(take < self.refresh_h).tolist():
                self._pending[int(planned_packs[rows[row]])] = chunk[
                    row, take[row] :
                ].copy()
            covered[rows] += take
            # A row still short of midnight executed its whole chunk
            # (``take == refresh_h``) and refreshes again from there.
            again = np.flatnonzero(covered[rows] < hours)
            self._project(
                rows[again], chunk[again], demand_j, capacity_j, charge_step_j,
                plan_soc,
            )
        modes[:, planned_packs] = planned.T
        return modes

    def _project(self, rows, executed, demand_j, capacity_j, charge_step_j, plan_soc):
        """Advance ``plan_soc[rows]`` through their ``executed`` modes.

        The projected SoC only seeds a later refresh of the same day, and
        ``plan_soc`` lives for one :meth:`day_modes` call, so callers pass
        only the rows that plan again today; a row whose plan reaches
        midnight is never projected.
        """
        if not rows.size:
            return
        self.projected_windows += rows.size
        plan_soc[rows] = self.planner.project_state_of_charge(
            executed,
            demand_j[rows, : executed.shape[1]],
            capacity_j[rows],
            charge_step_j[rows],
            plan_soc[rows],
        )

    def _take_pending(self, planned_packs: np.ndarray, planned: np.ndarray) -> np.ndarray:
        """Move each planning pack's carried plan tail into ``planned``.

        A tail left over from an earlier refresh window (``refresh_h``
        spanning midnight) executes before any new forecast is requested, so
        planning cadence is set by ``refresh_h`` alone: ``refresh_h=48``
        calls the model every other day instead of silently replanning at
        every midnight.  A tail longer than the day keeps its remainder for
        the next day.  Returns each pack's covered hour count.
        """
        hours = planned.shape[1]
        covered = np.zeros(planned_packs.size, dtype=np.int64)
        for row, pack in enumerate(planned_packs.tolist()):
            pending = self._pending.pop(pack, None)
            if pending is None or not pending.size:
                continue
            take = min(pending.size, hours)
            planned[row, :take] = pending[:take]
            if pending.size > take:
                self._pending[pack] = pending[take:]
            covered[row] = take
        return covered

    def _windows(self, site_index, start_h):
        """The model's forecast and seeing mask for each ``(site, start)`` row.

        Every pack at a site plans against the same forecast of their shared
        grid (a noisy model must not perturb one physical quantity two
        ways), so rows that share a site and a start hour share one window:
        the model sees each distinct pair once, and the rows gather theirs.
        """
        n_hours = self.truth.shape[1]
        keys, inverse = np.unique(site_index * n_hours + start_h, return_inverse=True)
        forecast, seeing = self.model.windows(
            self.truth, keys // n_hours, keys % n_hours, self.horizon_h
        )
        self.forecast_windows += keys.size
        return forecast[inverse], seeing[inverse]


class EnergyLedger:
    """Per-device-type battery state and the hourly dispatch physics.

    Ledger columns are the *packs* of a :class:`PackTable`: one ``(site,
    cohort)`` entry per device type per site, so a mixed Pixel 3A / Nexus 4
    site tracks two independent SoC fractions with their own capacities and
    charge rates.  State-of-charge is a *fraction* per pack: every live device of a
    type carries its own battery at the cohort-wide SoC, so the aggregate
    capacity follows the live device count through churn while the fraction
    is preserved (a failed device leaves with its pack; a fresh spare
    arrives charged).
    """

    def __init__(self, packs: PackTable, min_state_of_charge: float = 0.25) -> None:
        if not 0.0 <= min_state_of_charge < 1.0:
            raise ValueError("min state of charge must be within [0, 1)")
        self.packs = packs
        self.min_soc = min_state_of_charge
        self.soc = np.ones(len(packs))

    def step_block(
        self,
        modes: np.ndarray,
        device_energy_j: np.ndarray,
        step_s: float,
        capacity_j: np.ndarray,
        charge_rate_w: np.ndarray,
        idle_fraction: np.ndarray,
    ):
        """Advance all packs hour by hour over a block of rows.

        Every input is an ``(H, C)`` matrix, or broadcastable to one
        (capabilities may vary per row); returns the per-row ``(battery_j,
        charge_j, soc)`` series with ``self.soc`` left at the final row.
        ``device_energy_j`` is the device-only energy each pack must
        deliver per hour (peripherals always stay on the grid), and
        ``idle_fraction`` scales the charge rate — only idle headroom
        charges a pack, devices busy serving requests do not.

        Hours run in sequence, each one vectorized across packs.  Below the
        SoC floor charging is forced whatever the policy says (the backup-
        power guarantee of the per-device study); charging and discharging
        are mutually exclusive, discharge stops at the floor, and charging
        stops at a full pack.
        """
        modes = np.asarray(modes)
        n_rows, n_packs = modes.shape
        shape = (n_rows, n_packs)
        capacity_j = np.broadcast_to(np.asarray(capacity_j, dtype=float), shape)
        charge_rate_w = np.broadcast_to(np.asarray(charge_rate_w, dtype=float), shape)
        device_energy_j = np.broadcast_to(
            np.asarray(device_energy_j, dtype=float), shape
        )
        idle_fraction = np.broadcast_to(np.asarray(idle_fraction, dtype=float), shape)
        has_capacity = capacity_j > 0
        usable = self.packs.has_battery[None, :] & has_capacity
        wants_discharge = usable & (modes == DISPATCH_DISCHARGE)
        wants_charge = usable & (modes == DISPATCH_CHARGE)
        deliverable_j = charge_rate_w * np.clip(idle_fraction, 0.0, 1.0) * step_s

        battery_j = np.empty(shape)
        charge_j = np.empty(shape)
        soc = np.empty(shape)
        state = self.soc
        min_soc = self.min_soc
        maximum, minimum, where, clip = np.maximum, np.minimum, np.where, np.clip
        # On a tie ``np.minimum(a, b)`` returns ``b``, as Python's
        # ``min(b, a)`` does: the operands are ordered so a +0.0 / -0.0 tie
        # (an idle fraction of -0.0) gives the same signed zero as the
        # scalar ``min(device_j, available)`` and ``min(headroom, deliverable)``.
        # The one-sided floors are ``np.maximum`` (what ``np.clip(x, 0.0,
        # None)`` calls); the two-sided SoC clip stays ``np.clip``, which a
        # ``minimum(maximum(...))`` pair does not match on a -0.0 input.
        with np.errstate(invalid="ignore", divide="ignore"):
            for row in range(n_rows):
                forced = usable[row] & (state < min_soc)
                capacity = capacity_j[row]
                available = maximum(state - min_soc, 0.0) * capacity
                battery = where(
                    wants_discharge[row] & ~forced,
                    minimum(available, device_energy_j[row]),
                    0.0,
                )
                headroom = maximum(1.0 - state, 0.0) * capacity
                charge = where(
                    wants_charge[row] | forced,
                    minimum(deliverable_j[row], headroom),
                    0.0,
                )
                delta = where(has_capacity[row], (charge - battery) / capacity, 0.0)
                state = clip(state + delta, 0.0, 1.0)
                battery_j[row] = battery
                charge_j[row] = charge
                soc[row] = state
        self.soc = state
        return battery_j, charge_j, soc


def physical_utilization(served_rps: np.ndarray, physical: np.ndarray) -> np.ndarray:
    """Per-``(hour, pack)`` utilisation against *non-derated* capacity.

    Battery cycling and charge headroom both follow what the devices
    physically do, so utilisation is measured against each pack's
    day-start ``physical`` capacity regardless of any routing-level wear
    derate.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        util = np.where(physical > 0, served_rps / physical, 0.0)
    return np.clip(util, 0.0, 1.0)


def replay_dispatch(
    packs: PackTable,
    dispatch: DispatchPolicy,
    intensity_g_per_kwh: np.ndarray,
    cohort_energy_kwh: np.ndarray,
    cohort_served_rps: np.ndarray,
    cohort_day_start: np.ndarray,
    step_s: float,
    truth: Optional[np.ndarray] = None,
):
    """Replay a run's dispatch timeline, day by day, over its report.

    The fleet loop routes and churns first; the battery ledger only
    consumes :class:`~repro.fleet.reporting.FleetReport` fields of that
    pass, named as there.  ``cohort_day_start`` holds the ``(n_days,
    n_packs)`` day-start device counts, whose products with ``packs`` give
    each day's pack capabilities; each pack reads its site's intensity
    column, and idles (can charge) one minus its
    :func:`physical_utilization`.  The replay builds the run's one
    :class:`EnergyLedger` and starts the policy
    (:meth:`DispatchPolicy.start_run`, handing it ``truth``, a truth table
    another replay of this run built); each day the policy sets that day's
    modes from the day index, the previous day's intensity, the day's
    counts and the ledger's SoC at the start of the day, and the ledger
    steps the day's rows.

    Returns ``(battery_j, charge_j, soc, shortfall_j)``; ``shortfall_j`` is
    the per-``(hour, pack)`` discharge energy the ledger could not deliver
    against the *policy's* (pre-override) modes, for clip accounting.
    """
    n_steps, n_packs = cohort_served_rps.shape
    n_days = cohort_day_start.shape[0]
    hours_per_day = n_steps // n_days
    ledger = EnergyLedger(packs, min_state_of_charge=dispatch.min_state_of_charge)
    dispatch.start_run(packs, n_steps, truth)
    capacity_j = cohort_day_start * packs.battery_j
    charge_rate_w = cohort_day_start * packs.charge_w
    physical = cohort_day_start * packs.requests_per_device_s
    battery_j = np.empty((n_steps, n_packs))
    charge_j = np.empty((n_steps, n_packs))
    soc = np.empty((n_steps, n_packs))
    shortfall_j = np.empty((n_steps, n_packs))
    previous_intensity: Optional[np.ndarray] = None
    for day in range(n_days):
        rows = slice(day * hours_per_day, (day + 1) * hours_per_day)
        intensity = intensity_g_per_kwh[rows][:, packs.site_index]
        device_j = cohort_energy_kwh[rows] * units.JOULES_PER_KWH
        modes = dispatch.day_modes(
            day,
            packs,
            previous_intensity,
            intensity,
            cohort_day_start[day],
            ledger.soc,
        )
        battery_j[rows], charge_j[rows], soc[rows] = ledger.step_block(
            modes,
            device_j,
            step_s,
            capacity_j[day],
            charge_rate_w[day],
            1.0 - physical_utilization(cohort_served_rps[rows], physical[day]),
        )
        shortfall_j[rows] = np.where(
            modes == DISPATCH_DISCHARGE,
            np.maximum(device_j - battery_j[rows], 0.0),
            0.0,
        )
        previous_intensity = intensity
    return battery_j, charge_j, soc, shortfall_j


def estimate_cohort_savings(
    site: FleetSite, cohort: DeviceCohort, min_state_of_charge: float = 0.25
) -> Optional[float]:
    """Detached smart-charging study for one cohort on its site's trace.

    Runs the paper's per-device percentile study (the Fig. 7-style estimate)
    against the cohort's device, the site's grid trace, and the cohort's
    load profile, returning the median fractional daily savings — or
    ``None`` when the device has no battery.
    """
    if cohort.device.battery is None:
        return None
    from repro.charging import smart_charging_savings

    study = smart_charging_savings(
        cohort.device,
        site.trace,
        load_profile=cohort.load_profile,
        min_state_of_charge=min_state_of_charge,
    )
    return study.median_savings


def estimate_site_savings(
    site: FleetSite, min_state_of_charge: float = 0.25
) -> Optional[float]:
    """Detached smart-charging estimate for one (possibly mixed) site.

    The single place that derives the trace/battery context for the scenario
    runner's ``coupling="estimate"`` mode, so the estimate and the coupled
    dispatch share one trace-level decision path.  Single-cohort sites
    return their cohort's study directly (the historical behaviour); mixed
    sites run one study per battery-backed cohort and weight the medians by
    target deployment.  ``None`` when no cohort has a battery.
    """
    single = len(site.cohorts) == 1
    weighted = 0.0
    weight_total = 0
    for entry in site.cohorts:
        estimate = estimate_cohort_savings(site, entry, min_state_of_charge)
        if estimate is None:
            continue
        if single:
            return estimate
        weighted += entry.target_size * estimate
        weight_total += entry.target_size
    if weight_total == 0:
        return None
    return weighted / weight_total


def estimate_fleet_savings(
    sites: Sequence[FleetSite], min_state_of_charge: float = 0.25
) -> Dict[str, float]:
    """Per-site detached charging estimates, skipping battery-less sites."""
    savings: Dict[str, float] = {}
    for site in sites:
        estimate = estimate_site_savings(site, min_state_of_charge)
        if estimate is not None:
            savings[site.name] = estimate
    return savings
