"""Per-cohort churn oracle: one cohort stepped alone over compacted buckets.

This is the churn engine as it stood before the fleet-wide
:class:`~repro.fleet.population.ChurnTable`: one cohort's deploy-day
buckets in their own arrays, emptied buckets compacted away after every
step, and the device sampler's slot index remapped on each compaction.
``tests/fleet/test_churn_table_oracle.py`` steps random multi-row tables
and holds every row to this cohort stepped alone, field by field, under
``float.hex`` and the final RNG state.

:class:`Step` is the per-step record both sides are compared in:
:meth:`OracleCohort.step` returns one, and :func:`table_step` reads one
out of a table step's ``(rows,)`` arrays.  :func:`run_alone` steps a
cohort as a fresh one-row table, the way the churn tests drive it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units
from repro.devices.power import LIGHT_MEDIUM
from repro.fleet.population import (
    ChurnTable,
    FailureModel,
    IntakeStream,
)


@dataclass(frozen=True)
class Step:
    """What happened to one cohort during one step."""

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


def table_step(out, row, day):
    """Row ``row`` of a :meth:`ChurnTable.step` result, ending on ``day``."""
    return Step(
        day=day,
        failures=int(out["failures"][row]),
        battery_swaps=int(out["battery_swaps"][row]),
        retirements=int(out["retirements"][row]),
        deployed=int(out["deployed"][row]),
        active=int(out["active"][row]),
        spares=int(out["spares"][row]),
        replacement_carbon_g=float(out["replacement_carbon_g"][row]),
    )


def run_alone(cohort, n_steps, utilization=None, dt_days=1.0):
    """``cohort`` as a fresh one-row table stepped ``n_steps`` times at one
    utilisation: the table and one :class:`Step` per step."""
    table = ChurnTable([cohort])
    steps, day = [], 0.0
    for _ in range(n_steps):
        day += dt_days
        steps.append(table_step(table.step(dt_days, [utilization]), 0, day))
    return table, steps

#: Per-bucket state arrays, one row per live deploy-day group.
_BUCKET_FIELDS = ("_count", "_age_days", "_battery_cycles", "_battery_swaps")


def _grown(array, needed, used, fill=0):
    """``array`` with room for ``needed`` rows (amortised doubling)."""
    if needed <= len(array):
        return array
    grown = np.full(max(needed, 2 * len(array)), fill, dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class OracleCohort:
    """One cohort's churn, stepped alone (see the module docstring)."""

    def __init__(
        self,
        device,
        policy,
        intake: Optional[IntakeStream] = None,
        failure_model: Optional[FailureModel] = None,
        load_profile=LIGHT_MEDIUM,
        seed: int = 0,
        sampler: str = "device",
    ) -> None:
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

        self._count = np.zeros(16, dtype=np.int64)
        self._age_days = np.zeros(16)
        self._battery_cycles = np.zeros(16)
        self._battery_swaps = np.zeros(16, dtype=np.int64)
        self._m = 0
        self.buckets_peak = 0

        slots = max(16, 2 * policy.target_size) if sampler == "device" else 0
        self._slot_bucket = np.full(slots, -1, dtype=np.int64)
        self._n = 0

        self.total_failures = 0
        self.total_battery_swaps = 0
        self.total_retirements = 0
        self.total_deployed = 0
        self.total_replacement_carbon_g = 0.0

        self._deploy(policy.target_size)

    @property
    def active_count(self) -> int:
        return int(self._count[: self._m].sum())

    def _device_mean(self, values):
        total = self.active_count
        if total == 0:
            return 0.0
        if self.sampler == "device":
            slots = self._slot_bucket[: self._n]
            return float(np.mean(values[slots[slots >= 0]]))
        return float(np.sum(self._count[: self._m] * values[: self._m]) / total)

    def mean_age_days(self) -> float:
        return self._device_mean(self._age_days)

    def mean_battery_wear(self) -> float:
        if self.device.battery is None:
            return 0.0
        return self._device_mean(self._battery_cycles) / self.device.battery.cycle_life

    def _deploy(self, count):
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

    def _compact(self):
        m = self._m
        live = self._count[:m] > 0
        keep = int(np.count_nonzero(live))
        if keep == m:
            return
        for name in _BUCKET_FIELDS:
            array = getattr(self, name)
            array[:keep] = array[:m][live]
        if self._n:
            slots = self._slot_bucket[: self._n]
            slots[:] = np.append(np.cumsum(live) - 1, -1)[slots]
        self._m = keep

    def _draw_failures(self, p_fail):
        if self.sampler == "bucket":
            return self._rng.binomial(self._count[: self._m], p_fail)
        slots = self._slot_bucket[: self._n]
        draws = self._rng.random(self._n)
        failed = np.flatnonzero(draws < np.append(p_fail, 0.0)[slots])
        buckets = slots[failed]
        slots[failed] = -1
        return np.bincount(buckets, minlength=self._m)

    def _arrivals(self, dt_days):
        rate = self.intake.arrivals_per_day * dt_days
        if rate == 0:
            return 0
        if self.intake.poisson:
            return int(self._rng.poisson(rate))
        self._fractional_arrivals += rate
        whole = int(self._fractional_arrivals)
        self._fractional_arrivals -= whole
        return whole

    def average_draw_w(self, utilization=None):
        if utilization is None:
            return self.device.average_power_w(self.load_profile)
        return self.device.power_model.power_at(utilization)

    def step(self, dt_days=1.0, utilization=None) -> Step:
        m = self._m
        counts = self._count[:m]

        model = self.failure_model
        age_years = np.asarray(self._age_days[:m], dtype=float) / 365.25
        hazard = model.annual_rate + model.age_acceleration_per_year * age_years
        p_fail = 1.0 - np.exp(-hazard * dt_days / 365.25)
        failed = self._draw_failures(p_fail)
        failures = int(failed.sum())
        counts -= failed

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

        self._age_days[:m] += dt_days
        self.spares += self._arrivals(dt_days)

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
        return Step(
            day=self.day,
            failures=failures,
            battery_swaps=battery_swaps,
            retirements=retirements,
            deployed=deployed,
            active=self.active_count,
            spares=self.spares,
            replacement_carbon_g=replacement_carbon_g,
        )
