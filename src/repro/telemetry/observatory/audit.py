"""Invariant audit mode: conservation checks over one finished fleet run.

Opt-in via ``ExecutionSpec.audit`` / the CLI ``--audit`` flag.  The
:class:`~repro.fleet.reporting.FleetReport` is the run's record: after the
simulation's vectorized Pass B has filled it, the auditor re-derives every
conservation law the report's fields and views must obey, given only what
the report does not hold (offered demand, retirements, the dispatch
shortfall and SoC floor, per-device request rates and grams per battery
swap), and records violations as structured telemetry events:

* **meter balance** — wall energy each site pays == grid serving energy
  plus battery charging energy;
* **serving balance** — site energy demand == grid draw + battery
  discharge (energy in equals energy out, per site and per cohort);
* **SoC bounds** — every pack's state of charge stays inside
  ``[dispatch floor, 1]`` (``[0, 1]`` without dispatch);
* **allocation feasibility** — the routed load never exceeds the
  physical capacity of the live population nor the offered demand;
* **clip accounting** — the report's clipped-setpoint count and energy
  match a recount of the dispatch replay's shortfall matrix;
* **churn conservation** — per cohort-day, devices are conserved exactly
  (``deployed - failures - retirements == active - day_start_count``,
  an integer identity both churn engines must satisfy) and replacement
  carbon is exactly ``battery swaps x embodied battery carbon``.

The auditor only *reads* the report — it runs after all numerics
are done, draws no random numbers, and mutates nothing, so an audit-on
run is bitwise-identical to a plain run (locked by
``tests/scenarios/test_observatory_scenarios.py``) and costs nothing
when disabled (the scheduler never imports this module then).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import units
from repro.fleet.reporting import FleetReport
from repro.fleet.scheduler import ALLOC_TOL_RPS, CLIP_TOL_J

#: SoC bound slack; the ledger guarantees the floor to ~1 ulp.
SOC_TOL = 1e-9

#: Relative/absolute tolerance for energy-conservation identities.  These
#: hold exactly up to reassociation of float sums, so the slack only needs
#: to absorb a few ulps.
ENERGY_RTOL = 1e-9
ENERGY_ATOL = 1e-12


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant: which check, how many cells, how badly."""

    check: str
    count: int
    max_error: float


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one invariant audit pass."""

    checks: int
    violations: Tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_violations(self) -> int:
        return sum(violation.count for violation in self.violations)

    def render(self) -> str:
        if self.ok:
            return (
                f"audit: all {self.checks} invariant checks passed "
                "(0 violations)"
            )
        lines = [
            f"audit: {len(self.violations)} of {self.checks} invariant "
            f"checks FAILED ({self.total_violations} violating cells)"
        ]
        for violation in self.violations:
            lines.append(
                f"  {violation.check}: {violation.count} cells, "
                f"max error {violation.max_error:.3e}"
            )
        return "\n".join(lines)


class _Auditor:
    """Accumulates check outcomes; one instance per audited run."""

    def __init__(self) -> None:
        self.checks = 0
        self.violations: List[AuditViolation] = []

    def check_mask(self, name: str, bad: np.ndarray, error: np.ndarray) -> None:
        """Record one elementwise check: ``bad`` marks violating cells."""
        self.checks += 1
        count = int(np.count_nonzero(bad))
        if count:
            self.violations.append(
                AuditViolation(
                    check=name,
                    count=count,
                    max_error=float(np.max(np.abs(error[bad]))),
                )
            )

    def check_close(self, name: str, actual: np.ndarray, expected: np.ndarray) -> None:
        """Conservation identity: ``actual == expected`` up to a few ulps."""
        diff = np.asarray(actual, dtype=float) - np.asarray(expected, dtype=float)
        scale = np.maximum(np.abs(actual), np.abs(expected))
        self.check_mask(
            name, np.abs(diff) > ENERGY_ATOL + ENERGY_RTOL * scale, diff
        )


def audit_fleet_run(
    report: FleetReport,
    *,
    demand_rps: np.ndarray,
    retirements: np.ndarray,
    shortfall_j: Optional[np.ndarray] = None,
    min_soc: Optional[float] = None,
    requests_per_device_s: np.ndarray,
    swap_embodied_g: np.ndarray,
    telemetry=None,
) -> AuditReport:
    """Run every invariant check over one finished run's report.

    The report is the run's record; the arguments are what it does not
    hold.  ``demand_rps`` is the ``(T,)`` demand routing was offered;
    ``retirements`` the ``(D, C)`` devices retired per cohort-day;
    ``shortfall_j`` the dispatch replay's per-``(hour, pack)`` undelivered
    discharge energy and ``min_soc`` the dispatch policy's SoC floor (both
    ``None`` without dispatch); ``requests_per_device_s`` each pack's
    per-device request rate, which turns the report's day-start counts into
    physical capacity; ``swap_embodied_g`` each pack's grams per battery
    swap.  Violations are recorded on ``telemetry`` as ``audit.violation``
    events plus the ``audit.checks`` / ``audit.violations`` counters.

    The churn identities hold *exactly* — integer counting for devices,
    one float product per day for carbon — for both the ``device`` and
    ``bucket`` churn engines.
    """
    auditor = _Auditor()
    alloc = report.cohort_served_rps
    counts_day = report.cohort_day_start
    hours_per_day = len(alloc) // len(counts_day)

    # Allocation feasibility: never negative, never beyond the physical
    # capacity of the live population, never more than the offered demand.
    auditor.check_mask("allocation_nonnegative", alloc < -ALLOC_TOL_RPS, alloc)
    capacity = np.repeat(counts_day * requests_per_device_s, hours_per_day, axis=0)
    over = alloc - capacity
    auditor.check_mask("allocation_within_capacity", over > ALLOC_TOL_RPS, over)
    row_over = alloc.sum(axis=1) - (
        demand_rps * (1.0 + ALLOC_TOL_RPS) + ALLOC_TOL_RPS
    )
    auditor.check_mask("allocation_within_demand", row_over > 0, row_over)

    # Meter balance: the wall energy each site pays is exactly its grid
    # serving draw plus its battery charging draw.
    grid_kwh = report.grid_kwh
    battery_kwh = report.battery_kwh
    auditor.check_close(
        "site_meter_balance", report.energy_kwh, grid_kwh + report.charge_kwh
    )
    # Serving balance: site energy demand == grid + battery out.
    cohort_energy_kwh = report.cohort_energy_kwh
    cohort_battery_kwh = report.cohort_battery_kwh
    auditor.check_close(
        "site_serving_balance",
        report.site_sum(cohort_energy_kwh) + report.site_peripheral_kwh,
        grid_kwh + battery_kwh,
    )
    auditor.check_close(
        "cohort_serving_balance",
        cohort_energy_kwh,
        report.cohort_grid_kwh + cohort_battery_kwh,
    )
    # Nothing flows backwards through the meter, and a pack cannot serve
    # more device energy than the devices drew.
    auditor.check_mask("grid_nonnegative", grid_kwh < -ENERGY_ATOL, grid_kwh)
    charge = report.cohort_charge_kwh
    auditor.check_mask("charge_nonnegative", charge < -ENERGY_ATOL, charge)
    over_served = cohort_battery_kwh - cohort_energy_kwh
    auditor.check_mask(
        "battery_within_device_load",
        over_served > ENERGY_ATOL + ENERGY_RTOL * np.abs(cohort_energy_kwh),
        over_served,
    )

    # SoC bounds: every pack stays inside [floor, ceiling].
    soc = report.cohort_soc
    floor = 0.0 if min_soc is None else float(min_soc)
    auditor.check_mask("soc_floor", soc < floor - SOC_TOL, soc - floor)
    auditor.check_mask("soc_ceiling", soc > 1.0 + SOC_TOL, soc - 1.0)

    # Clip accounting: the report's clipped figures match a recount of the
    # replay's shortfall matrix.
    if shortfall_j is not None:
        infeasible = shortfall_j > CLIP_TOL_J
        auditor.check_close(
            "clip_count_consistent",
            report.clipped_setpoints,
            np.count_nonzero(infeasible),
        )
        auditor.check_close(
            "clip_energy_consistent",
            report.clipped_energy_kwh,
            float(shortfall_j[infeasible].sum()) / units.JOULES_PER_KWH,
        )

    # Churn conservation: devices are counted, not summed — the identity
    # deployed - failures - retirements == active - day_start_count holds
    # exactly per cohort-day for every churn engine, as does replacement
    # carbon == swaps x embodied.
    active = report.cohort_active
    flow = report.cohort_deployed - report.cohort_failures - retirements
    drift = (active - counts_day) - flow
    auditor.check_mask("churn_count_conservation", drift != 0, drift)
    auditor.check_mask("churn_counts_nonnegative", active < 0, active)
    auditor.check_close(
        "churn_carbon_conservation",
        report.cohort_replacement_carbon_g,
        report.cohort_battery_swaps * swap_embodied_g[None, :],
    )

    audit = AuditReport(checks=auditor.checks, violations=tuple(auditor.violations))
    if telemetry is not None:
        telemetry.count("audit.checks", audit.checks)
        telemetry.count("audit.violations", audit.total_violations)
        for violation in audit.violations:
            telemetry.event(
                "audit.violation",
                check=violation.check,
                count=violation.count,
                max_error=violation.max_error,
            )
    return audit
