"""Fleet-level carbon, availability, and churn reporting.

A :class:`FleetReport` is the single artifact a fleet simulation produces:
hourly served/dropped/operational-carbon/intensity series per site plus
daily population series (active devices, failures, swaps, replacement
carbon).  From it every downstream consumer derives what it needs:

* the fleet CCI (grams of CO2e per served request, the paper's Equation 1
  applied to the whole fleet over the whole horizon);
* availability (delivered capacity against the target deployment);
* per-site and fleet-wide summary tables for the text reports in
  :mod:`repro.analysis.report`;
* daily CCI / carbon time series for figure builders in
  :mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.core.cci import computational_carbon_intensity


def _column_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix``'s columns as the rows of one C-contiguous array.

    A summary reduces every column at once along ``axis=1`` of this array:
    a contiguous row reduces with the same 1-D pairwise sum as the strided
    column ``matrix[:, j]``, so each row's ``sum``/``mean`` is bitwise the
    per-column one (``axis=0`` on ``matrix`` itself adds in another order).
    """
    return np.ascontiguousarray(np.transpose(matrix))


def day_start_counts(target: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Live devices at the start of each day of a run, ``(D, C)``.

    A run starts every pack at its ``target`` (a fresh churn table), and
    day ``d`` starts where day ``d - 1`` ended (``active[d - 1]``).
    """
    return np.concatenate((target[None, :], active[:-1]))


@dataclass(frozen=True)
class SiteSummary:
    """Aggregates for one site over the simulated horizon."""

    name: str
    served_requests: float
    operational_carbon_g: float
    replacement_carbon_g: float
    mean_intensity_g_per_kwh: float
    availability: float
    failures: int
    battery_swaps: int
    deployed: int

    @property
    def total_carbon_g(self) -> float:
        """Operational plus replacement carbon for this site."""
        return self.operational_carbon_g + self.replacement_carbon_g

    @property
    def cci_g_per_request(self) -> float:
        """Site-level CCI (g CO2e per served request)."""
        return computational_carbon_intensity(
            self.total_carbon_g, max(self.served_requests, 1.0)
        )


@dataclass(frozen=True)
class CohortSummary:
    """Aggregates for one device-type cohort of one site over the horizon."""

    label: str
    site: str
    served_requests: float
    replacement_carbon_g: float
    availability: float
    failures: int
    battery_swaps: int
    deployed: int
    battery_discharge_kwh: float
    device_energy_kwh: float


@dataclass(frozen=True)
class FleetReport:
    """Everything a fleet simulation measured.

    The per-pack (cohort) series are the only stored series: hourly arrays
    of shape ``(T, C)`` and daily arrays ``(D, C)``, each column one
    ``site/device`` pack (``cohort_labels``, site-major order) owned by the
    site ``cohort_site_index`` names.  The site series (``(T, S)`` /
    ``(D, S)``) and ``target_devices``, ``hours``, ``days``,
    ``cohort_grid_kwh`` and ``cohort_day_start`` are read-only views
    derived from them on every access, so a loop over sites binds each
    view to a local once.  A fleet simulation's report is its run's one
    record: the run's dispatch pass, its hindsight replay and its audit
    all read it.

    ``cohort_energy_kwh`` is *device-only* energy; peripherals belong to
    the site (``site_peripheral_kwh``) and are never battery-backed.  Runs
    without a dispatch policy store zero battery and charge series and
    full packs.  ``step_s`` is the timestep in seconds (requests/s times
    ``step_s`` is requests).  Only ``hindsight_avoided_g`` is optional: its
    absence means "no regret accounting was run".
    """

    policy_name: str
    site_names: Tuple[str, ...]
    #: Demand no pack could serve (requests/s), shape ``(T,)``.
    dropped_rps: np.ndarray
    #: Grid carbon intensity at each site, shape ``(T, S)``.
    intensity_g_per_kwh: np.ndarray
    #: Each site's constant peripheral energy per timestep (kWh), ``(S,)``.
    site_peripheral_kwh: np.ndarray
    cohort_labels: Tuple[str, ...]
    cohort_site_index: np.ndarray
    cohort_target: np.ndarray
    cohort_served_rps: np.ndarray
    cohort_energy_kwh: np.ndarray
    cohort_battery_kwh: np.ndarray
    cohort_charge_kwh: np.ndarray
    #: End-of-step pack state of charge in ``[0, 1]``, shape ``(T, C)``.
    cohort_soc: np.ndarray
    #: Day-start pack capacity (J), shape ``(D, C)``: the weights of the
    #: site ``soc`` view.
    cohort_battery_capacity_j: np.ndarray
    cohort_active: np.ndarray
    cohort_replacement_carbon_g: np.ndarray
    cohort_battery_swaps: np.ndarray
    cohort_failures: np.ndarray
    cohort_deployed: np.ndarray
    step_s: float = 3_600.0
    #: Carbon (grams) the hindsight-optimal dispatch plan would have avoided
    #: over the same horizon — the lookahead planner run with perfect
    #: knowledge of every trace (see :mod:`repro.forecast`).  ``None`` when
    #: no forecast regret accounting was performed; the scenario runner fills
    #: it for forecast-dispatch runs.
    hindsight_avoided_g: Optional[float] = None
    #: Dispatch setpoints the energy ledger clipped for infeasibility: hours
    #: where the policy asked a pack to discharge but the SoC floor (or the
    #: forced recharge below it) kept the pack from delivering the full
    #: device energy.  ``clipped_energy_kwh`` is the total shortfall the
    #: grid silently served instead.  Zero for runs without a dispatch
    #: policy; the planner otherwise gets no signal that its plan was
    #: infeasible, so these are the observability for that gap.
    clipped_setpoints: int = 0
    clipped_energy_kwh: float = 0.0

    def __post_init__(self) -> None:
        n_sites = len(self.site_names)
        n_cohorts = len(self.cohort_labels)
        n_steps = np.shape(self.dropped_rps)
        n_days = np.shape(self.cohort_active)[:1]
        if len(n_steps) != 1 or n_days in ((), (0,)) or n_steps[0] % n_days[0]:
            raise ValueError(
                f"dropped_rps has shape {n_steps} and cohort_active "
                f"{np.shape(self.cohort_active)}: not whole days of timesteps"
            )
        hourly, daily = n_steps + (n_cohorts,), n_days + (n_cohorts,)
        expected_shapes = {
            "intensity_g_per_kwh": n_steps + (n_sites,),
            "site_peripheral_kwh": (n_sites,),
            "cohort_site_index": (n_cohorts,),
            "cohort_target": (n_cohorts,),
            "cohort_served_rps": hourly,
            "cohort_energy_kwh": hourly,
            "cohort_battery_kwh": hourly,
            "cohort_charge_kwh": hourly,
            "cohort_soc": hourly,
            "cohort_battery_capacity_j": daily,
            "cohort_active": daily,
            "cohort_replacement_carbon_g": daily,
            "cohort_battery_swaps": daily,
            "cohort_failures": daily,
            "cohort_deployed": daily,
        }
        for name, expected in expected_shapes.items():
            shape = np.shape(getattr(self, name))
            if shape != expected:
                raise ValueError(f"{name} has shape {shape}, expected {expected}")
        # The site views sum each site's run of pack columns with
        # ``np.add.reduceat``, which silently mis-sums any other layout.
        site_index = np.asarray(self.cohort_site_index)
        if site_index.dtype.kind not in "iu" or np.any(np.diff(site_index) < 0):
            raise ValueError("cohort_site_index must be nondecreasing integers")
        if not np.array_equal(np.unique(site_index), np.arange(n_sites)):
            raise ValueError(
                f"cohort_site_index must give each of the {n_sites} sites "
                "at least one cohort"
            )

    # ------------------------------------------------------------------
    # Site views of the pack series
    # ------------------------------------------------------------------

    @property
    def site_starts(self) -> np.ndarray:
        """Each site's first pack column, shape ``(S,)``."""
        return np.searchsorted(
            self.cohort_site_index, np.arange(len(self.site_names))
        )

    def site_sum(self, cohort_series: np.ndarray) -> np.ndarray:
        """Sum pack columns (last axis, ``C``) into site columns (``S``)."""
        return np.add.reduceat(cohort_series, self.site_starts, axis=-1)

    @property
    def hours(self) -> np.ndarray:
        """Start of each timestep (hours since the run began), shape ``(T,)``."""
        return np.arange(len(self.dropped_rps), dtype=float) * (
            self.step_s / units.SECONDS_PER_HOUR
        )

    @property
    def days(self) -> np.ndarray:
        """Day numbers ``1..D``, shape ``(D,)``."""
        return np.arange(1, len(self.cohort_active) + 1, dtype=float)

    @property
    def target_devices(self) -> np.ndarray:
        """Deployment each site tries to keep active, shape ``(S,)``."""
        return self.site_sum(self.cohort_target)

    @property
    def cohort_day_start(self) -> np.ndarray:
        """Live devices in each pack at the start of each day, ``(D, C)``."""
        return day_start_counts(self.cohort_target, self.cohort_active)

    @property
    def served_rps(self) -> np.ndarray:
        """Requests/s each site served, shape ``(T, S)``."""
        return self.site_sum(self.cohort_served_rps)

    @property
    def cohort_grid_kwh(self) -> np.ndarray:
        """Grid energy serving each pack's device load (kWh), ``(T, C)``."""
        return self.cohort_energy_kwh - self.cohort_battery_kwh

    @property
    def battery_kwh(self) -> np.ndarray:
        """Battery discharge serving each site's device load (kWh), ``(T, S)``."""
        return self.site_sum(self.cohort_battery_kwh)

    @property
    def charge_kwh(self) -> np.ndarray:
        """Grid energy filling each site's packs (kWh), ``(T, S)``."""
        return self.site_sum(self.cohort_charge_kwh)

    @property
    def grid_kwh(self) -> np.ndarray:
        """Grid energy serving each site's load, peripherals included (kWh).

        ``grid_kwh + battery_kwh`` is the energy the site consumed.
        """
        return (
            self.site_sum(self.cohort_energy_kwh) + self.site_peripheral_kwh
        ) - self.battery_kwh

    @property
    def energy_kwh(self) -> np.ndarray:
        """Each site's wall energy (kWh), ``(T, S)``: serving plus charging."""
        return self.grid_kwh + self.charge_kwh

    @property
    def operational_g(self) -> np.ndarray:
        """Operational carbon (grams) of each site's wall energy, ``(T, S)``."""
        return self.energy_kwh * self.intensity_g_per_kwh

    @property
    def soc(self) -> np.ndarray:
        """End-of-step site state of charge in ``[0, 1]``, shape ``(T, S)``.

        The capacity-weighted mean over the site's packs, weighted by each
        pack's day-start capacity.  Single-pack sites pass their pack's
        fraction through untouched; rows where no pack of a site holds
        energy fall back to the plain mean.
        """
        pack_soc = self.cohort_soc
        starts = self.site_starts
        capacity = np.repeat(
            self.cohort_battery_capacity_j, len(self.hours) // len(self.days), axis=0
        )
        sizes = np.diff(np.append(starts, pack_soc.shape[1]))
        weighted = np.add.reduceat(pack_soc * capacity, starts, axis=-1)
        totals = np.add.reduceat(capacity, starts, axis=-1)
        plain = np.add.reduceat(pack_soc, starts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(totals > 0, weighted / totals, plain / sizes[None, :])
        single = sizes == 1
        out[:, single] = pack_soc[:, starts[single]]
        return out

    @property
    def active_devices(self) -> np.ndarray:
        """Live devices at each site at the end of each day, ``(D, S)``."""
        return self.site_sum(self.cohort_active)

    @property
    def replacement_carbon_g(self) -> np.ndarray:
        """Battery-replacement carbon (grams) per site-day, ``(D, S)``."""
        return self.site_sum(self.cohort_replacement_carbon_g)

    @property
    def battery_swaps(self) -> np.ndarray:
        """Battery swaps per site-day, ``(D, S)``."""
        return self.site_sum(self.cohort_battery_swaps)

    @property
    def failures(self) -> np.ndarray:
        """Device failures per site-day, ``(D, S)``."""
        return self.site_sum(self.cohort_failures)

    @property
    def deployed(self) -> np.ndarray:
        """Spares deployed per site-day, ``(D, S)``."""
        return self.site_sum(self.cohort_deployed)

    # ------------------------------------------------------------------
    # Fleet-level aggregates
    # ------------------------------------------------------------------

    @property
    def total_served_requests(self) -> float:
        """Requests served across all sites over the horizon."""
        return float(self.served_rps.sum() * self.step_s)

    @property
    def total_dropped_requests(self) -> float:
        """Demand the fleet could not serve (requests)."""
        return float(self.dropped_rps.sum() * self.step_s)

    @property
    def total_operational_carbon_g(self) -> float:
        """Operational carbon across all sites (grams)."""
        return float(self.operational_g.sum())

    @property
    def total_replacement_carbon_g(self) -> float:
        """Battery-replacement embodied carbon across all sites (grams)."""
        return float(self.replacement_carbon_g.sum())

    @property
    def total_carbon_g(self) -> float:
        """Operational + replacement carbon (grams)."""
        return self.total_operational_carbon_g + self.total_replacement_carbon_g

    def fleet_cci_g_per_request(self) -> float:
        """Fleet CCI: total carbon over total served requests (Equation 1)."""
        return computational_carbon_intensity(
            self.total_carbon_g, max(self.total_served_requests, 1.0)
        )

    # ------------------------------------------------------------------
    # Energy-dispatch (battery ledger) accounting
    # ------------------------------------------------------------------

    @property
    def total_battery_discharge_kwh(self) -> float:
        """Battery energy that served device load across the horizon (kWh)."""
        return float(self.battery_kwh.sum())

    @property
    def total_charge_kwh(self) -> float:
        """Grid energy spent filling batteries across the horizon (kWh)."""
        return float(self.charge_kwh.sum())

    # ------------------------------------------------------------------
    # Per-device-type cohort accounting
    # ------------------------------------------------------------------

    @property
    def n_cohorts(self) -> int:
        """Cohort columns tracked."""
        return len(self.cohort_labels)

    def cohort_battery_discharge_kwh(self) -> np.ndarray:
        """Per-cohort battery discharge throughput (kWh), shape ``(C,)``."""
        return self.cohort_battery_kwh.sum(axis=0)

    def cohort_summaries(self) -> List[CohortSummary]:
        """Per-cohort aggregate rows, in site-major cohort order."""
        target = np.asarray(self.cohort_target, dtype=float)
        columns = zip(
            self.cohort_labels,
            np.asarray(self.cohort_site_index).tolist(),
            (_column_rows(self.cohort_served_rps).sum(axis=1) * self.step_s).tolist(),
            _column_rows(self.cohort_replacement_carbon_g).sum(axis=1).tolist(),
            _column_rows(self.cohort_active / target).mean(axis=1).tolist(),
            _column_rows(self.cohort_failures).sum(axis=1).tolist(),
            _column_rows(self.cohort_battery_swaps).sum(axis=1).tolist(),
            _column_rows(self.cohort_deployed).sum(axis=1).tolist(),
            self.cohort_battery_discharge_kwh().tolist(),
            _column_rows(self.cohort_energy_kwh).sum(axis=1).tolist(),
        )
        return [
            CohortSummary(
                label, self.site_names[site], served, replacement, availability,
                int(failures), int(swaps), int(deployed), discharge, energy,
            )
            for (
                label, site, served, replacement, availability, failures,
                swaps, deployed, discharge, energy,
            ) in columns
        ]

    def site_carbon_avoided_g(self) -> np.ndarray:
        """Per-site operational carbon the dispatch ledger avoided (grams).

        Battery energy displaced grid purchases at the discharge hours'
        intensity but was bought back at the charge hours' intensity, so the
        realised saving is the intensity-weighted difference.  Zero when the
        ledger was not in the loop.  Boundary convention: packs start the
        horizon full (reused phones arrive charged — that energy was paid
        before the window) and any end-of-horizon deficit is likewise left
        to the next window, so very short horizons can credit up to one
        pack's worth of pre-window energy; compare coupling modes over
        multi-day runs.
        """
        avoided = self.battery_kwh * self.intensity_g_per_kwh
        paid = self.charge_kwh * self.intensity_g_per_kwh
        return (avoided - paid).sum(axis=0)

    def carbon_avoided_g(self) -> float:
        """Fleet-wide realised carbon avoided by the dispatch ledger (grams)."""
        return float(self.site_carbon_avoided_g().sum())

    def realised_charging_savings(self) -> Dict[str, float]:
        """Per-site realised fractional savings versus the no-dispatch ledger.

        The counterfactual operational carbon is what the site *would* have
        emitted had every battery-served joule been grid-served at the same
        hours: ``operational + avoided``.  All-zero entries when the ledger
        never moved energy (no dispatch policy was coupled in).
        """
        avoided = self.site_carbon_avoided_g()
        operational = self.operational_g.sum(axis=0)
        savings: Dict[str, float] = {}
        for j, name in enumerate(self.site_names):
            counterfactual = operational[j] + avoided[j]
            savings[name] = (
                float(avoided[j] / counterfactual) if counterfactual > 0 else 0.0
            )
        return savings

    # ------------------------------------------------------------------
    # Forecast regret accounting
    # ------------------------------------------------------------------

    @property
    def has_regret_accounting(self) -> bool:
        """True when a hindsight-optimal counterfactual was recorded."""
        return self.hindsight_avoided_g is not None

    def raw_forecast_regret_g(self) -> float:
        """Signed regret (grams): hindsight-optimal minus realised avoided.

        Unlike :meth:`forecast_regret_g` this is *not* clamped: the greedy
        hindsight baseline ignores within-window setpoint ordering, so a
        noisy forecast can occasionally luck into a plan the baseline
        missed — and then the raw regret goes negative, which is worth
        seeing rather than silently reading as zero.  ``0.0`` when no regret
        accounting was performed.
        """
        if self.hindsight_avoided_g is None:
            return 0.0
        return self.hindsight_avoided_g - self.carbon_avoided_g()

    def forecast_regret_g(self) -> float:
        """Carbon (grams) left on the table versus the hindsight-optimal plan.

        The hindsight plan is the same greedy lookahead planner run with
        perfect knowledge of the true traces, so a perfect forecast has zero
        regret by construction.  An imperfect forecast can, on rare windows,
        luck into a plan the greedy hindsight baseline missed; regret is
        clamped at zero so it reads as "how much a better forecast could
        still recover", never as a negative debt — the signed figure stays
        visible as :meth:`raw_forecast_regret_g`.  ``0.0`` when no regret
        accounting was performed.
        """
        if self.hindsight_avoided_g is None:
            return 0.0
        return max(0.0, self.raw_forecast_regret_g())

    def served_fraction(self) -> float:
        """Fraction of offered demand that was served."""
        offered = self.total_served_requests + self.total_dropped_requests
        if offered == 0:
            return 1.0
        return self.total_served_requests / offered

    def availability(self) -> float:
        """Mean fraction of the target deployment that was live."""
        target_total = float(self.target_devices.sum())
        if target_total == 0:
            return 0.0
        return float(np.mean(self.active_devices.sum(axis=1) / target_total))

    # ------------------------------------------------------------------
    # Time series for figures
    # ------------------------------------------------------------------

    def daily_carbon_g(self) -> np.ndarray:
        """Total carbon per day (operational + replacement), shape ``(D,)``."""
        steps_per_day = len(self.hours) // len(self.days)
        operational = self.operational_g.sum(axis=1).reshape(
            len(self.days), steps_per_day
        ).sum(axis=1)
        return operational + self.replacement_carbon_g.sum(axis=1)

    def daily_cci_series(self) -> np.ndarray:
        """Running (cumulative) fleet CCI at the end of each day."""
        steps_per_day = len(self.hours) // len(self.days)
        daily_served = (
            self.served_rps.sum(axis=1).reshape(len(self.days), steps_per_day).sum(axis=1)
            * self.step_s
        )
        cumulative_carbon = np.cumsum(self.daily_carbon_g())
        cumulative_served = np.maximum(np.cumsum(daily_served), 1.0)
        return cumulative_carbon / cumulative_served

    def availability_series(self) -> np.ndarray:
        """Daily fleet availability (active / target), shape ``(D,)``."""
        return self.active_devices.sum(axis=1) / float(self.target_devices.sum())

    # ------------------------------------------------------------------
    # Per-site summaries
    # ------------------------------------------------------------------

    def site_summaries(self) -> List[SiteSummary]:
        """Per-site aggregate rows, in site order."""
        columns = zip(
            self.site_names,
            (_column_rows(self.served_rps).sum(axis=1) * self.step_s).tolist(),
            _column_rows(self.operational_g).sum(axis=1).tolist(),
            _column_rows(self.replacement_carbon_g).sum(axis=1).tolist(),
            _column_rows(self.intensity_g_per_kwh).mean(axis=1).tolist(),
            _column_rows(
                self.active_devices / self.target_devices.astype(float)
            ).mean(axis=1).tolist(),
            _column_rows(self.failures).sum(axis=1).tolist(),
            _column_rows(self.battery_swaps).sum(axis=1).tolist(),
            _column_rows(self.deployed).sum(axis=1).tolist(),
        )
        return [
            SiteSummary(
                name, served, operational, replacement, intensity, availability,
                int(failures), int(swaps), int(deployed),
            )
            for (
                name, served, operational, replacement, intensity,
                availability, failures, swaps, deployed,
            ) in columns
        ]

    def summary_dict(self) -> Dict[str, float]:
        """Headline numbers, convenient for asserts and JSON dumps."""
        summary = {
            "policy": self.policy_name,
            "served_requests": self.total_served_requests,
            "dropped_requests": self.total_dropped_requests,
            "operational_carbon_kg": self.total_operational_carbon_g / 1_000.0,
            "replacement_carbon_kg": self.total_replacement_carbon_g / 1_000.0,
            "fleet_cci_g_per_request": self.fleet_cci_g_per_request(),
            "availability": self.availability(),
            "served_fraction": self.served_fraction(),
        }
        discharge_kwh = self.total_battery_discharge_kwh
        if discharge_kwh > 0:
            summary["battery_discharge_kwh"] = discharge_kwh
            summary["carbon_avoided_kg"] = self.carbon_avoided_g() / 1_000.0
        if discharge_kwh > 0 or self.clipped_setpoints > 0:
            summary["clipped_setpoints"] = int(self.clipped_setpoints)
            summary["clipped_energy_kwh"] = float(self.clipped_energy_kwh)
        if self.has_regret_accounting:
            summary["hindsight_avoided_kg"] = self.hindsight_avoided_g / 1_000.0
            summary["forecast_regret_kg"] = self.forecast_regret_g() / 1_000.0
            summary["forecast_regret_raw_kg"] = (
                self.raw_forecast_regret_g() / 1_000.0
            )
        return summary


def compare_reports(reports: Dict[str, "FleetReport"]) -> List[Tuple[str, float, float]]:
    """Rank policies by fleet CCI: ``(policy, cci, operational_kg)`` ascending."""
    rows = [
        (
            name,
            report.fleet_cci_g_per_request(),
            report.total_operational_carbon_g / 1_000.0,
        )
        for name, report in reports.items()
    ]
    rows.sort(key=lambda row: row[1])
    return rows
