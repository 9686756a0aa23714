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
* :class:`DeviceCohort` — the one churn engine: the population held as
  deploy-day buckets of identical device state, stepped in days, reporting
  failures / swaps / deployments / replacement carbon per step as
  :class:`CohortStep` records.  Its ``sampler`` (one of
  :data:`CHURN_SAMPLERS`) picks only the hardware-failure draw: one uniform
  per device, or one binomial per bucket.

A site holds one or more typed cohorts (a mixed Pixel 3A / Nexus 4 rack is
the realistic junkyard deployment; see :class:`~repro.fleet.sites.FleetSite`).
All stochasticity flows from per-cohort ``numpy`` generators seeded at
construction, so a fixed seed reproduces the fleet trajectory exactly and
adding or re-seeding one cohort never perturbs another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import units
from repro.devices.power import LIGHT_MEDIUM, LoadProfile
from repro.devices.specs import DeviceSpec


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
        if self.arrivals_per_day < 0:
            raise ValueError("intake rate must be non-negative")
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
        if self.annual_rate < 0 or self.age_acceleration_per_year < 0:
            raise ValueError("failure rates must be non-negative")

    def hazard_per_year(self, age_days: np.ndarray) -> np.ndarray:
        """Instantaneous hazard (1/year) for devices of the given ages."""
        age_years = np.asarray(age_days, dtype=float) / 365.25
        return self.annual_rate + self.age_acceleration_per_year * age_years

    def failure_probability(self, age_days: np.ndarray, dt_days: float) -> np.ndarray:
        """Probability of failing within the next ``dt_days``."""
        if dt_days < 0:
            raise ValueError("time step must be non-negative")
        hazard = self.hazard_per_year(age_days)
        return 1.0 - np.exp(-hazard * dt_days / 365.25)


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
        if self.target_size <= 0:
            raise ValueError("target fleet size must be positive")
        if self.max_battery_swaps < 0:
            raise ValueError("max battery swaps must be non-negative")


@dataclass(frozen=True)
class CohortStep:
    """What happened to a cohort during one simulation step."""

    day: float
    failures: int
    battery_swaps: int
    retirements: int
    deployed: int
    active: int
    spares: int
    replacement_carbon_g: float

    @property
    def churn(self) -> int:
        """Devices leaving the active fleet this step."""
        return self.failures + self.retirements


#: Failure draws a :class:`DeviceCohort` may use (the ``churn.sampler`` names).
CHURN_SAMPLERS = ("device", "bucket")

#: Per-bucket state arrays, one row per live deploy-day group.
_BUCKET_FIELDS = ("_count", "_age_days", "_battery_cycles", "_battery_swaps")


def _grown(array: np.ndarray, needed: int, used: int, fill: int = 0) -> np.ndarray:
    """``array`` with room for ``needed`` rows (amortised doubling)."""
    if needed <= len(array):
        return array
    grown = np.full(max(needed, 2 * len(array)), fill, dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class DeviceCohort:
    """A vectorized population of one device type at one site.

    Every device deployed on the same step shares its age, battery cycles
    and swap count for life: ages advance uniformly, cycles accrue at the
    cohort's common realised utilisation, and a failure removes a device
    without touching its peers.  State is therefore held as deploy-day
    buckets ``(count, age, cycles, swaps)``.  Only deployment opens a
    bucket (at most one per step) and emptied buckets are compacted away
    in order, so a cohort carries at most ~``n_steps`` live buckets
    whatever its device count.  Battery wear-out is a whole-bucket event
    (swap in place, or retire once the swap budget is spent), and intake,
    deploy and shortfall are exact integer counting, so ``deployed -
    failures - retirements == delta(active)`` and ``replacement carbon ==
    swaps x embodied`` hold exactly every step.

    ``sampler`` picks only how hardware failures are drawn:

    * ``"device"`` — the per-device reference: one uniform per slot ever
      deployed, in slot order, against its bucket's hazard.  The cohort
      keeps a slot -> bucket index (``-1`` once the device is gone), sized
      at twice the target and doubled as intake outgrows it.
    * ``"bucket"`` — one ``Binomial(count, p(age))`` per bucket, exactly
      the distribution of ``count`` i.i.d. Bernoulli draws at the bucket's
      age, at O(buckets) instead of O(devices) per step.

    The two samplers are distributionally equivalent but consume the RNG
    differently, so single trajectories differ; that is why the choice
    lives on the scenario spec and in its hash.
    """

    def __init__(
        self,
        device: DeviceSpec,
        policy: ReplacementPolicy,
        intake: Optional[IntakeStream] = None,
        failure_model: Optional[FailureModel] = None,
        load_profile: LoadProfile = LIGHT_MEDIUM,
        seed: int = 0,
        initial_size: Optional[int] = None,
        sampler: str = "device",
    ) -> None:
        if sampler not in CHURN_SAMPLERS:
            known = ", ".join(CHURN_SAMPLERS)
            raise ValueError(
                f"unknown churn sampler {sampler!r}; expected one of: {known}"
            )
        self.device = device
        self.policy = policy
        self.intake = intake or IntakeStream()
        self.failure_model = failure_model or FailureModel()
        self.load_profile = load_profile
        self.sampler = sampler
        self._rng = np.random.default_rng(seed)
        self._fractional_arrivals = 0.0
        self.day = 0.0
        self.spares = self.intake.initial_spares
        self.history: List[CohortStep] = []

        self._count = np.zeros(16, dtype=np.int64)
        self._age_days = np.zeros(16)
        self._battery_cycles = np.zeros(16)
        self._battery_swaps = np.zeros(16, dtype=np.int64)
        self._m = 0
        #: High-water mark of live buckets (the ``churn.buckets_peak`` gauge).
        self.buckets_peak = 0

        slots = 0
        if sampler == "device":
            slots = max(16, 2 * policy.target_size)
        self._slot_bucket = np.full(slots, -1, dtype=np.int64)
        self._n = 0

        self.total_failures = 0
        self.total_battery_swaps = 0
        self.total_retirements = 0
        self.total_deployed = 0
        self.total_replacement_carbon_g = 0.0

        deploy = policy.target_size if initial_size is None else initial_size
        if deploy < 0:
            raise ValueError("initial size must be non-negative")
        self._deploy(deploy)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of currently-active devices."""
        return int(self._count[: self._m].sum())

    @property
    def buckets_live(self) -> int:
        """Number of live buckets (distinct device states) right now."""
        return self._m

    @property
    def availability(self) -> float:
        """Active devices as a fraction of the policy's target size."""
        return self.active_count / self.policy.target_size

    def _device_mean(self, values: np.ndarray) -> float:
        """Mean of a per-bucket quantity over the active devices (0 when none).

        The device sampler averages the per-slot values in slot order and
        the bucket sampler weights each bucket by its count; the two forms
        differ in the last bits, and each sampler keeps its own.
        """
        total = self.active_count
        if total == 0:
            return 0.0
        if self.sampler == "device":
            slots = self._slot_bucket[: self._n]
            return float(np.mean(values[slots[slots >= 0]]))
        return float(np.sum(self._count[: self._m] * values[: self._m]) / total)

    def mean_age_days(self) -> float:
        """Mean age of the active devices (0 when none are active)."""
        return self._device_mean(self._age_days)

    def mean_battery_wear(self) -> float:
        """Mean fraction of battery cycle life consumed by active devices."""
        if self.device.battery is None:
            return 0.0
        return self._device_mean(self._battery_cycles) / self.device.battery.cycle_life

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _deploy(self, count: int) -> int:
        """Open one fresh bucket (age 0, pristine battery) of ``count`` devices."""
        if count <= 0:
            return 0
        index = self._m
        for name in _BUCKET_FIELDS:
            setattr(self, name, _grown(getattr(self, name), index + 1, index))
        self._count[index] = count
        self._age_days[index] = 0.0
        self._battery_cycles[index] = 0.0
        self._battery_swaps[index] = 0
        self._m += 1
        self.buckets_peak = max(self.buckets_peak, self._m)
        if self.sampler == "device":
            n = self._n
            self._slot_bucket = _grown(self._slot_bucket, n + count, n, fill=-1)
            self._slot_bucket[n : n + count] = index
            self._n += count
        self.total_deployed += count
        return count

    def _compact(self) -> None:
        """Drop emptied buckets, preserving the order of the survivors."""
        m = self._m
        live = self._count[:m] > 0
        keep = int(np.count_nonzero(live))
        if keep == m:
            return
        for name in _BUCKET_FIELDS:
            array = getattr(self, name)
            array[:keep] = array[:m][live]
        if self._n:
            # Alive slots follow their bucket to its new row; gone slots
            # (-1) index the appended -1 and stay gone.
            slots = self._slot_bucket[: self._n]
            slots[:] = np.append(np.cumsum(live) - 1, -1)[slots]
        self._m = keep

    def _draw_failures(self, p_fail: np.ndarray) -> np.ndarray:
        """Hardware failures per bucket this step, drawn by the sampler."""
        if self.sampler == "bucket":
            return self._rng.binomial(self._count[: self._m], p_fail)
        # One uniform per slot ever deployed, in slot order; gone slots
        # index the appended 0.0 and never fail.
        slots = self._slot_bucket[: self._n]
        draws = self._rng.random(self._n)
        failed = np.flatnonzero(draws < np.append(p_fail, 0.0)[slots])
        buckets = slots[failed]
        slots[failed] = -1
        return np.bincount(buckets, minlength=self._m)

    def _arrivals(self, dt_days: float) -> int:
        rate = self.intake.arrivals_per_day * dt_days
        if rate == 0:
            return 0
        if self.intake.poisson:
            return int(self._rng.poisson(rate))
        self._fractional_arrivals += rate
        whole = int(self._fractional_arrivals)
        self._fractional_arrivals -= whole
        return whole

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

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

    def step(self, dt_days: float = 1.0, utilization: Optional[float] = None) -> CohortStep:
        """Advance the population by ``dt_days`` of virtual time.

        ``utilization`` is the mean per-device CPU utilisation over the step
        (drives battery cycling); when omitted the load profile's average
        applies.  Returns the :class:`CohortStep` record, which is also
        appended to :attr:`history`.
        """
        if dt_days <= 0:
            raise ValueError("time step must be positive")
        m = self._m
        counts = self._count[:m]

        # 1. Stochastic hardware failures (age-dependent hazard, evaluated
        # once per bucket).
        p_fail = self.failure_model.failure_probability(self._age_days[:m], dt_days)
        failed = self._draw_failures(p_fail)
        failures = int(failed.sum())
        counts -= failed

        # 2. Battery cycling and wear-out: a bucket's common cycle counter
        # crosses cycle_life for every member at once.  Zero draw accrues
        # no cycles and no live bucket carries cycles >= cycle_life across
        # a step boundary, so the wear block is skipped outright.
        battery_swaps = 0
        retirements = 0
        replacement_carbon_g = 0.0
        battery = self.device.battery
        if battery is not None:
            cycles_per_day = battery.daily_cycles(self.average_draw_w(utilization))
            if cycles_per_day != 0.0:
                cycles = self._battery_cycles[:m]
                cycles += cycles_per_day * dt_days
                worn = (counts > 0) & (cycles >= battery.cycle_life)
                if worn.any():
                    swaps_used = self._battery_swaps[:m]
                    if self.policy.swap_batteries:
                        swappable = worn & (swaps_used < self.policy.max_battery_swaps)
                    else:
                        swappable = np.zeros_like(worn)
                    retire = worn & ~swappable
                    battery_swaps = int(counts[swappable].sum())
                    retirements = int(counts[retire].sum())
                    cycles[swappable] = 0.0
                    swaps_used[swappable] += 1
                    counts[retire] = 0
                    if self._n and retirements:
                        slots = self._slot_bucket[: self._n]
                        slots[np.append(retire, False)[slots]] = -1
                    replacement_carbon_g += battery_swaps * units.kg_to_grams(
                        battery.embodied_carbon_kgco2e
                    )

        # 3. Age survivors (emptied buckets are compacted away below).
        self._age_days[:m] += dt_days

        # 4. Intake of decommissioned devices into the spare pool.
        self.spares += self._arrivals(dt_days)

        # 5. Deploy spares to fill the shortfall: one fresh bucket.
        shortfall = self.policy.target_size - int(counts.sum())
        deployed = min(self.spares, max(0, shortfall))
        self.spares -= deployed
        self._compact()
        self._deploy(deployed)

        self.day += dt_days
        self.total_failures += failures
        self.total_battery_swaps += battery_swaps
        self.total_retirements += retirements
        self.total_replacement_carbon_g += replacement_carbon_g

        step = CohortStep(
            day=self.day,
            failures=failures,
            battery_swaps=battery_swaps,
            retirements=retirements,
            deployed=deployed,
            active=self.active_count,
            spares=self.spares,
            replacement_carbon_g=replacement_carbon_g,
        )
        self.history.append(step)
        return step

    def run(self, n_days: int, utilization: Optional[float] = None) -> List[CohortStep]:
        """Step the cohort one day at a time for ``n_days``."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        return [self.step(1.0, utilization=utilization) for _ in range(n_days)]


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
