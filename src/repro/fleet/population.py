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
* :class:`DeviceCohort` — the vectorized population itself, stepped in
  days, reporting failures / swaps / deployments / replacement carbon per
  step as :class:`CohortStep` records.

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


class DeviceCohort:
    """A vectorized population of one device type at one site.

    State is held in flat NumPy arrays (one slot per device ever deployed);
    an ``active`` mask distinguishes live devices from failed/retired ones.
    Arrays grow amortised-doubling style, so a year of daily steps over a
    10,000-device fleet allocates only a handful of times; callers that
    know the run length can pass ``capacity_hint`` (e.g. ``target_size +
    n_days x expected intake``) to skip the doubling copies entirely.
    """

    #: Engine name surfaced via the ``churn.sampler`` telemetry gauge.
    sampler_name = "device"

    def __init__(
        self,
        device: DeviceSpec,
        policy: ReplacementPolicy,
        intake: Optional[IntakeStream] = None,
        failure_model: Optional[FailureModel] = None,
        load_profile: LoadProfile = LIGHT_MEDIUM,
        seed: int = 0,
        initial_size: Optional[int] = None,
        capacity_hint: Optional[int] = None,
    ) -> None:
        self.device = device
        self.policy = policy
        self.intake = intake or IntakeStream()
        self.failure_model = failure_model or FailureModel()
        self.load_profile = load_profile
        self._rng = np.random.default_rng(seed)
        self._fractional_arrivals = 0.0
        self.day = 0.0
        self.spares = self.intake.initial_spares
        self.history: List[CohortStep] = []

        capacity = max(16, 2 * policy.target_size, capacity_hint or 0)
        self._age_days = np.zeros(capacity)
        self._battery_cycles = np.zeros(capacity)
        self._battery_swaps = np.zeros(capacity, dtype=np.int64)
        self._active = np.zeros(capacity, dtype=bool)
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
        return int(np.count_nonzero(self._active[: self._n]))

    @property
    def availability(self) -> float:
        """Active devices as a fraction of the policy's target size."""
        return self.active_count / self.policy.target_size

    def mean_age_days(self) -> float:
        """Mean age of the active devices (0 when none are active)."""
        mask = self._active[: self._n]
        if not mask.any():
            return 0.0
        return float(np.mean(self._age_days[: self._n][mask]))

    def mean_battery_wear(self) -> float:
        """Mean fraction of battery cycle life consumed by active devices."""
        if self.device.battery is None:
            return 0.0
        mask = self._active[: self._n]
        if not mask.any():
            return 0.0
        cycles = self._battery_cycles[: self._n][mask]
        return float(np.mean(cycles) / self.device.battery.cycle_life)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._age_days)
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        for name in ("_age_days", "_battery_cycles", "_battery_swaps", "_active"):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _deploy(self, count: int) -> int:
        """Activate ``count`` fresh devices (age 0, pristine battery)."""
        if count <= 0:
            return 0
        self._grow_to(self._n + count)
        sl = slice(self._n, self._n + count)
        self._age_days[sl] = 0.0
        self._battery_cycles[sl] = 0.0
        self._battery_swaps[sl] = 0
        self._active[sl] = True
        self._n += count
        self.total_deployed += count
        return count

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

    def _failure_probabilities(self, ages: np.ndarray, dt_days: float) -> np.ndarray:
        """Per-device failure probabilities, deduplicated over integer ages.

        With daily stepping every age is a whole number, so instead of an
        ``np.exp`` per device we evaluate the hazard once per distinct age
        (a table of at most ``max_age + 1`` entries) and gather.  The hazard
        is elementwise, so equal float inputs produce bitwise-equal
        outputs — the gathered result is identical to the direct call.
        Non-integer ages (fractional ``dt_days``) fall back to the direct
        per-device evaluation.
        """
        if ages.shape[0]:
            ages_int = ages.astype(np.int64)
            if np.array_equal(ages_int, ages):
                table = self.failure_model.failure_probability(
                    np.arange(int(ages_int.max()) + 1, dtype=float), dt_days
                )
                return table[ages_int]
        return self.failure_model.failure_probability(ages, dt_days)

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
        n = self._n
        active = self._active[:n]
        ages = self._age_days[:n]

        # 1. Stochastic hardware failures (age-dependent hazard).
        p_fail = self._failure_probabilities(ages, dt_days)
        draws = self._rng.random(n)
        failed = active & (draws < p_fail)
        failures = int(np.count_nonzero(failed))
        active &= ~failed

        # 2. Battery cycling and wear-out.
        battery_swaps = 0
        retirements = 0
        replacement_carbon_g = 0.0
        battery = self.device.battery
        if battery is not None:
            draw_w = self.average_draw_w(utilization)
            cycles_per_day = battery.daily_cycles(draw_w)
            # Zero draw accrues no cycles, and no *active* device carries
            # cycles >= cycle_life across a step boundary (worn devices are
            # swapped or retired the step they cross), so the whole wear
            # block is a no-op — skipping it is bitwise-safe.
            if cycles_per_day != 0.0:
                self._battery_cycles[:n][active] += cycles_per_day * dt_days
                worn = active & (self._battery_cycles[:n] >= battery.cycle_life)
            else:
                worn = np.zeros_like(active)
            if worn.any():
                swaps_used = self._battery_swaps[:n]
                if self.policy.swap_batteries:
                    swappable = worn & (swaps_used < self.policy.max_battery_swaps)
                else:
                    swappable = np.zeros_like(worn)
                retire = worn & ~swappable
                battery_swaps = int(np.count_nonzero(swappable))
                retirements = int(np.count_nonzero(retire))
                self._battery_cycles[:n][swappable] = 0.0
                self._battery_swaps[:n][swappable] += 1
                active &= ~retire
                replacement_carbon_g += battery_swaps * units.kg_to_grams(
                    battery.embodied_carbon_kgco2e
                )

        # 3. Age survivors.
        self._age_days[:n][active] += dt_days

        # 4. Intake of decommissioned devices into the spare pool.
        self.spares += self._arrivals(dt_days)

        # 5. Deploy spares to fill the shortfall against the target size.
        shortfall = self.policy.target_size - int(np.count_nonzero(active))
        deployed = min(self.spares, max(0, shortfall))
        self.spares -= deployed
        self._active[:n] = active
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
