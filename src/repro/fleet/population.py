"""Vectorized device populations: intake, aging, churn, and replacement.

The paper evaluates one static cluster of one device type; a production
junkyard-computing deployment instead sees a *stream* of decommissioned
phones arriving, aging, failing, and being replaced over months to years.
This module models that population dynamics layer with NumPy state arrays so
fleets of tens of thousands of devices simulate a year of virtual time in
well under a second:

* :class:`IntakeStream` — the arrival process of decommissioned devices
  (a deterministic daily rate with optional Poisson variation);
* :class:`FailureModel` — an age-dependent hazard rate for non-battery
  hardware failures (boards, flash, connectors), linear in device age;
* :class:`ReplacementPolicy` — what happens when a battery wears out or a
  device fails: swap the battery (re-introducing its embodied carbon, paper
  Equation 10) and/or deploy a spare from the intake pool;
* :class:`DeviceCohort` — the configuration of one cohort: device,
  policy, intake, failure model, load profile, seed, ``sampler`` (one
  of :data:`CHURN_SAMPLERS`, which picks only the hardware-failure draw:
  one uniform per device, or one binomial per live column) and the
  per-device request rate it serves;
* :class:`ChurnTable` — the one churn engine and the only holder of churn
  state: every cohort's population as one row of a table whose column
  ``k`` holds the devices deployed on step ``k`` (identical device state
  for life; a cell never moves, it only empties), stepped in whole-table
  array passes with only the random draws and the power lookup left per
  row.

A site holds one or more typed cohorts (a mixed Pixel 3A / Nexus 4 rack is
the realistic junkyard deployment; see :class:`~repro.fleet.sites.FleetSite`),
and a fleet run builds one fresh table from all of its sites' cohorts.  All
stochasticity flows from per-row ``numpy`` generators seeded from each
cohort's ``seed`` when the table is built, each drawn in the order the row
would be stepped alone, so a fixed seed reproduces the fleet trajectory
exactly and adding or re-seeding one cohort never perturbs another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import units
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec

#: Default sustained request service rate of one phone (requests/s): the
#: fleet model's assumed unit of work, not a measured rate.  The serving
#: simulator's DeathStarBench cloudlet sustains 300-450 req/s per phone
#: (the fig7 sweep), so a fleet "request" is not a fig7/fig9 request;
#: ROADMAP item 10 calibrates or renames it.
DEFAULT_REQUESTS_PER_DEVICE_S = 20.0


def _require_count(name: str, value) -> None:
    """Reject a device count that is a bool or not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class IntakeStream:
    """Arrival process of decommissioned devices entering the spare pool.

    ``arrivals_per_day`` is the mean intake rate; with ``poisson=True`` the
    per-step arrival count is Poisson-distributed around it (drawn from the
    cohort's seeded RNG), otherwise the deterministic rate is accumulated and
    released as whole devices.  ``initial_spares`` seeds the pool at t=0,
    modelling a warehouse of already-collected phones.
    """

    arrivals_per_day: float = 0.0
    initial_spares: int = 0
    poisson: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.arrivals_per_day < math.inf:
            raise ValueError(
                f"intake rate must be non-negative and finite, got {self.arrivals_per_day!r}"
            )
        _require_count("initial_spares", self.initial_spares)
        if self.initial_spares < 0:
            raise ValueError("initial spare count must be non-negative")


@dataclass(frozen=True)
class FailureModel:
    """Age-dependent hardware-failure hazard (excluding battery wear-out).

    The hazard (failures per device-year) is ``annual_rate`` at age zero and
    grows linearly by ``age_acceleration_per_year`` for every year of age —
    a coarse bathtub-curve right-hand side appropriate for already-burnt-in
    second-life hardware.
    """

    annual_rate: float = 0.06
    age_acceleration_per_year: float = 0.03

    def __post_init__(self) -> None:
        rates = (self.annual_rate, self.age_acceleration_per_year)
        if not all(0 <= rate < math.inf for rate in rates):
            raise ValueError(f"failure rates must be non-negative and finite, got {rates!r}")


@dataclass(frozen=True)
class ReplacementPolicy:
    """How the fleet responds to battery wear-out and device failure.

    ``target_size`` is the deployment the site tries to keep active; spares
    from the intake pool are deployed to fill any shortfall.  With
    ``swap_batteries=True`` a worn battery is replaced in place (charging its
    embodied carbon, Equation 10) up to ``max_battery_swaps`` times per
    device, after which the device is retired instead.  With
    ``swap_batteries=False`` battery wear-out retires the device directly
    (the paper's 100 %-solar regime treats batteries as bypassed, so wear
    never triggers — model that by setting the load's battery cycling off).
    """

    target_size: int
    swap_batteries: bool = True
    max_battery_swaps: int = 3

    def __post_init__(self) -> None:
        _require_count("target_size", self.target_size)
        _require_count("max_battery_swaps", self.max_battery_swaps)
        if self.target_size <= 0:
            raise ValueError("target fleet size must be positive")
        if self.max_battery_swaps < 0:
            raise ValueError("max battery swaps must be non-negative")


#: Failure draws a :class:`DeviceCohort` may use (the ``churn.sampler`` names).
CHURN_SAMPLERS = ("device", "bucket")


@dataclass(frozen=True)
class DeviceCohort:
    """The configuration of one device type's population at one site.

    A cohort holds no state: it is one row's worth of inputs to a
    :class:`ChurnTable`, which deploys ``policy.target_size`` devices at
    build time and owns every count, age and battery counter from there.
    Every device deployed on the same step shares its age, battery cycles
    and swap count for life: ages advance uniformly, cycles accrue at the
    cohort's common realised utilisation, and a failure removes a device
    without touching its peers.  Battery wear-out is a whole-cell event
    (swap in place, or retire once the swap budget is spent), and intake,
    deploy and shortfall are exact integer counting, so
    ``deployed - failures - retirements == delta(active)`` and
    ``replacement carbon == swaps x embodied`` hold exactly every step.

    ``seed`` seeds the row's generator each time a table is built, so every
    table built from the same cohorts steps the same trajectory.
    ``sampler`` picks only how hardware failures are drawn:

    * ``"device"`` — the per-device reference: one uniform per slot ever
      deployed, in slot order, against its column's hazard.  The row keeps
      a slot -> column index (``-1`` once the device is gone), sized at
      twice the target and doubled as intake outgrows it.
    * ``"bucket"`` — one ``Binomial(count, p(age))`` per live column,
      exactly the distribution of ``count`` i.i.d. Bernoulli draws at the
      column's age, at O(columns) instead of O(devices) per step.

    The two samplers are distributionally equivalent but consume the RNG
    differently, so single trajectories differ; that is why the choice
    lives on the scenario spec and in its hash.

    ``requests_per_device_s`` is the rate one device of the cohort serves.
    The per-device-type quantities the scheduler and dispatch layers consume
    (idle power, dynamic energy and wear carbon per request, battery energy,
    marginal CCI) are a :class:`~repro.fleet.dispatch.PackTable` column per
    cohort.
    """

    device: DeviceSpec
    policy: ReplacementPolicy
    intake: IntakeStream = IntakeStream()
    failure_model: FailureModel = FailureModel()
    load_profile: LoadProfile = LIGHT_MEDIUM
    seed: int = 0
    sampler: str = "device"
    requests_per_device_s: float = DEFAULT_REQUESTS_PER_DEVICE_S

    def __post_init__(self) -> None:
        if self.sampler not in CHURN_SAMPLERS:
            known = ", ".join(CHURN_SAMPLERS)
            raise ValueError(
                f"unknown churn sampler {self.sampler!r}; expected one of: {known}"
            )
        rate = self.requests_per_device_s
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(
                f"per-device request rate must be positive and finite, got {rate!r}"
            )

    @property
    def target_size(self) -> int:
        """The deployment this cohort tries to keep active."""
        return self.policy.target_size

    def average_draw_w(self, utilization: Optional[float] = None) -> float:
        """Per-device wall draw at the given mean utilisation.

        Defaults to the cohort's load profile average; the fleet scheduler
        passes the realised utilisation so battery cycling tracks the load
        actually routed to the site.
        """
        if utilization is None:
            return self.device.average_power_w(self.load_profile)
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization {utilization} outside [0, 1]")
        return self.device.power_model.power_at(utilization)


#: Per-column state of a :class:`ChurnTable`, each ``(rows, capacity)``.
_COLUMN_FIELDS = {
    "count": np.int64,
    "age_days": float,
    "battery_cycles": float,
    "battery_swaps": np.int64,
}


class ChurnTable:
    """Every cohort's churn state in one table, stepped in whole-table passes.

    Rows are cohorts, in the order given.  Column ``k`` holds the devices
    a row deployed on the table's ``k``-th step (column 0 is the initial
    deploy of each row's target).  Devices in one cell share their age,
    battery cycles and swap count for life, and a cell never moves:
    failures and retirements only lower its count, so an emptied cell
    just reads zero.  ``count``, ``age_days``, ``battery_cycles`` and
    ``battery_swaps`` are ``(rows, capacity)`` arrays grown by amortised
    doubling, of which ``width`` columns are in use; ``active``, ``spares``
    and ``peak_live`` are ``(rows,)``; the per-row constants (hazard,
    embodied grams, cycle life, target, swap budget, intake) are built
    once from the cohorts.  The table is the only holder of this state:
    building it reads the cohorts and never writes them, so every table
    built from the same cohorts starts from the same state and RNG seeds.

    A step keeps three things per row: the row's random draws on its own
    generator (one binomial over its live columns, or one uniform per
    device slot, then its Poisson intake), the scalar
    ``power_at``/``daily_cycles`` lookup at its utilisation, and, on
    request, the live-column reductions behind :meth:`mean_age_days` and
    :meth:`mean_battery_wear`.  Hazard, wear and swap/retire, ageing,
    shortfall and deploy are each one array operation over the table.
    Each row draws what it would draw stepped alone, in the same order, so
    a row's trajectory does not depend on the rows beside it.

    The device sampler keeps a slot index per row: one entry per device
    ever deployed, holding its column, or ``-1`` once the device is gone.
    """

    def __init__(self, cohorts: Sequence[DeviceCohort]) -> None:
        cohorts = tuple(cohorts)
        if not cohorts:
            raise ValueError("a churn table needs at least one cohort")
        self.cohorts = cohorts
        self._rngs = [np.random.default_rng(cohort.seed) for cohort in cohorts]
        batteries = [cohort.device.battery for cohort in cohorts]
        self.annual_rate = np.array([c.failure_model.annual_rate for c in cohorts])
        self.age_acceleration = np.array(
            [c.failure_model.age_acceleration_per_year for c in cohorts]
        )
        self.embodied_g = np.array(
            [
                0.0
                if battery is None
                else units.kg_to_grams(battery.embodied_carbon_kgco2e)
                for battery in batteries
            ]
        )
        #: Battery cycle life per row (infinite for a battery-less row).
        self.cycle_life = np.array(
            [math.inf if battery is None else battery.cycle_life for battery in batteries]
        )
        self.target = np.array([c.policy.target_size for c in cohorts], dtype=np.int64)
        #: Swaps a device may still take before wear-out retires it (0 when
        #: the policy never swaps).
        self.swap_budget = np.array(
            [c.policy.max_battery_swaps if c.policy.swap_batteries else 0 for c in cohorts],
            dtype=np.int64,
        )
        self.arrivals_per_day = np.array([c.intake.arrivals_per_day for c in cohorts])
        # A zero rate draws and accrues nothing (a rate that underflows to
        # zero over a step would draw or accrue zero too).
        poisson = np.array([c.intake.poisson for c in cohorts])
        has_intake = self.arrivals_per_day != 0
        self._poisson_rows = (poisson & has_intake).tolist()
        self._steady_rows = ~poisson & has_intake
        self._any_steady = bool(self._steady_rows.any())

        # Every row deploys its target into column 0.
        rows = len(cohorts)
        self.width = 1
        for name, dtype in _COLUMN_FIELDS.items():
            setattr(self, name, np.zeros((rows, 16), dtype=dtype))
        self.count[:, 0] = self.target
        #: Devices currently active, per row.
        self.active = self.target.copy()
        #: Devices waiting in each row's spare pool.
        self.spares = np.array(
            [c.intake.initial_spares for c in cohorts], dtype=np.int64
        )
        self.fractional_arrivals = np.zeros(rows)
        #: Live columns each row had at the start of its busiest step.
        self.peak_live = np.zeros(rows, dtype=np.int64)
        self.slots: List[Optional[np.ndarray]] = [None] * rows
        self.n_slots = [0] * rows
        self._slot_rows = [row for row, c in enumerate(cohorts) if c.sampler == "device"]
        for row in self._slot_rows:
            deploy = cohorts[row].policy.target_size
            self.slots[row] = np.full(max(16, 2 * deploy), -1, dtype=np.int64)
            self.slots[row][:deploy] = 0
            self.n_slots[row] = deploy

    def buckets_peak(self) -> np.ndarray:
        """Each row's high-water mark of live columns (distinct device states)."""
        live = np.count_nonzero(self.count[:, : self.width], axis=1)
        return np.maximum(self.peak_live, live)

    def _device_means(self, values: np.ndarray) -> np.ndarray:
        """Each row's mean of a ``(rows, capacity)`` quantity over its active
        devices (0 for a row with none).

        A device-sampler row averages its per-slot values in slot order
        and a bucket-sampler row weights each live column by its count; the
        two forms differ in the last bits, and each sampler keeps its own.
        """
        means = np.zeros(len(self.cohorts))
        width = self.width
        for row in np.flatnonzero(self.active).tolist():
            slots = self.slots[row]
            if slots is not None:
                held = slots[: self.n_slots[row]]
                means[row] = np.mean(values[row][held[held >= 0]])
            else:
                count = self.count[row, :width]
                live = count > 0
                total = np.sum(count[live] * values[row, :width][live])
                means[row] = total / self.active[row]
        return means

    def mean_age_days(self) -> np.ndarray:
        """Each row's mean age of its active devices (0 when none are active)."""
        return self._device_means(self.age_days)

    def mean_battery_wear(self) -> np.ndarray:
        """Each row's mean fraction of battery cycle life its active devices
        consumed (0 for a battery-less row)."""
        return self._device_means(self.battery_cycles) / self.cycle_life

    def _open_column(self, deployed: np.ndarray) -> None:
        """Deploy ``deployed[row]`` fresh devices into each row's new column."""
        column = self.width
        if column == self.count.shape[1]:
            for name in _COLUMN_FIELDS:
                old = getattr(self, name)
                grown = np.zeros((old.shape[0], 2 * column), dtype=old.dtype)
                grown[:, :column] = old
                setattr(self, name, grown)
        self.count[:, column] = deployed
        self.width = column + 1
        self.active += deployed
        for row in self._slot_rows:
            slots, n, count = self.slots[row], self.n_slots[row], int(deployed[row])
            if n + count > len(slots):
                grown = np.full(max(n + count, 2 * len(slots)), -1, dtype=np.int64)
                grown[:n] = slots[:n]
                self.slots[row] = slots = grown
            slots[n : n + count] = column
            self.n_slots[row] = n + count

    def _slot_failures(self, row: int, rng, p_fail: np.ndarray) -> np.ndarray:
        """Failures per column of a device-sampler row: one uniform per slot.

        Slots are drawn in slot order; gone slots (``-1``) index the
        appended 0.0 and never fail.
        """
        slots = self.slots[row][: self.n_slots[row]]
        draws = rng.random(len(slots))
        failed = np.flatnonzero(draws < np.append(p_fail, 0.0)[slots])
        columns = slots[failed]
        slots[failed] = -1
        return np.bincount(columns, minlength=len(p_fail))

    def step(
        self, dt_days: float, utilization: Optional[Sequence[Optional[float]]] = None
    ) -> Dict[str, np.ndarray]:
        """Advance every row by ``dt_days`` of virtual time.

        ``utilization[row]`` is the row's mean per-device CPU utilisation
        over the step (drives battery cycling); ``None``, for the table or
        for one row, applies the row's load-profile average.  Returns one
        ``(rows,)`` array per step count: ``failures``, ``battery_swaps``,
        ``retirements``, ``deployed``, ``active``, ``spares`` and
        ``replacement_carbon_g``.
        """
        if not (math.isfinite(dt_days) and dt_days > 0):
            raise ValueError(f"time step must be positive and finite, got {dt_days!r}")
        rows = len(self.cohorts)
        # The scalar power lookups come first: they validate every
        # utilisation before any state moves.  A row with no battery or a
        # zero draw accrues no cycles and wears nothing out this step.
        cycles_per_day = [0.0] * rows
        for row, cohort in enumerate(self.cohorts):
            battery = cohort.device.battery
            if battery is not None:
                level = None if utilization is None else utilization[row]
                cycles_per_day[row] = battery.daily_cycles(cohort.average_draw_w(level))
        cycles_per_day = np.array(cycles_per_day)
        cycle_life = np.where(cycles_per_day != 0.0, self.cycle_life, math.inf)

        width = self.width
        count = self.count[:, :width]
        ages = self.age_days[:, :width]
        live = count > 0
        live_per_row = live.sum(axis=1)
        np.maximum(self.peak_live, live_per_row, out=self.peak_live)

        # 1. Hardware failures: the hazard per cell, then each row's draws
        # on its own generator (failures, then intake) in row order.
        hazard = self.annual_rate[:, None] + self.age_acceleration[:, None] * (
            ages / 365.25
        )
        p_fail = 1.0 - np.exp(-hazard * dt_days / 365.25)
        live_counts = count[live]
        live_p = p_fail[live]
        failed_live = np.empty_like(live_counts)
        n_live = live_per_row.tolist()
        rate = self.arrivals_per_day * dt_days
        rates = rate.tolist()
        arrivals = np.zeros(rows, dtype=np.int64)
        start = 0
        for row, rng in enumerate(self._rngs):
            end = start + n_live[row]
            if self.slots[row] is None:
                failed_live[start:end] = rng.binomial(
                    live_counts[start:end], live_p[start:end]
                )
            else:
                failed_live[start:end] = self._slot_failures(row, rng, p_fail[row])[
                    live[row]
                ]
            if self._poisson_rows[row]:
                arrivals[row] = rng.poisson(rates[row])
            start = end
        failed = np.zeros_like(count)
        failed[live] = failed_live
        failures = failed.sum(axis=1)
        count -= failed

        # Deterministic intake accrues the rate and releases whole devices.
        if self._any_steady:
            steady = self._steady_rows
            accrued = self.fractional_arrivals[steady] + rate[steady]
            whole = accrued.astype(np.int64)
            self.fractional_arrivals[steady] = accrued - whole
            arrivals[steady] = whole

        # 2. Battery cycling and wear-out: a cell's common cycle counter
        # crosses cycle_life for every member at once.
        cycles = self.battery_cycles[:, :width]
        cycles += (cycles_per_day * dt_days)[:, None]
        worn = (count > 0) & (cycles >= cycle_life[:, None])
        battery_swaps = np.zeros(rows, dtype=np.int64)
        retirements = np.zeros(rows, dtype=np.int64)
        if worn.any():
            swaps_used = self.battery_swaps[:, :width]
            swappable = worn & (swaps_used < self.swap_budget[:, None])
            retire = worn & ~swappable
            battery_swaps = np.where(swappable, count, 0).sum(axis=1)
            retirements = np.where(retire, count, 0).sum(axis=1)
            cycles[swappable] = 0.0
            swaps_used[swappable] += 1
            count[retire] = 0
            for row in np.flatnonzero(retirements):
                if self.slots[row] is not None:
                    slots = self.slots[row][: self.n_slots[row]]
                    slots[np.append(retire[row], False)[slots]] = -1
        replacement_carbon_g = battery_swaps * self.embodied_g

        # 3. Age every cell, 4. take in the intake, 5. deploy spares into
        # the shortfall: one fresh column.
        ages += dt_days
        self.spares += arrivals
        self.active -= failures + retirements
        deployed = np.minimum(self.spares, np.maximum(self.target - self.active, 0))
        self.spares -= deployed
        self._open_column(deployed)

        return {
            "failures": failures,
            "battery_swaps": battery_swaps,
            "retirements": retirements,
            "deployed": deployed,
            "active": self.active.copy(),
            "spares": self.spares.copy(),
            "replacement_carbon_g": replacement_carbon_g,
        }

def steady_state_intake_rate(
    device: DeviceSpec,
    policy: ReplacementPolicy,
    failure_model: Optional[FailureModel] = None,
    load_profile: LoadProfile = LIGHT_MEDIUM,
) -> float:
    """Intake rate (devices/day) that sustains the target size in expectation.

    Balances the first-order loss processes: the age-zero hardware failure
    rate plus battery-driven retirements once every ``(1 + max_swaps)``
    battery lifetimes.  A useful starting point for sizing
    :class:`IntakeStream` in long-horizon scenarios.
    """
    model = failure_model or FailureModel()
    losses_per_device_day = model.annual_rate / 365.25
    battery = device.battery
    if battery is not None:
        draw_w = device.average_power_w(load_profile)
        cycles_per_day = battery.daily_cycles(draw_w)
        if cycles_per_day > 0:
            battery_life_days = battery.cycle_life / cycles_per_day
            lifetimes_until_retire = (
                1.0 + policy.max_battery_swaps if policy.swap_batteries else 1.0
            )
            losses_per_device_day += 1.0 / (battery_life_days * lifetimes_until_retire)
    if math.isinf(losses_per_device_day):
        raise ValueError("loss rate diverged; check device power and battery specs")
    return policy.target_size * losses_per_device_day
