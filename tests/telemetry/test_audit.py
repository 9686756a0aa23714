"""The invariant audit over a simulated fleet report.

Every check gets a test that makes it fail: a small simulated run's report
doctored with :func:`dataclasses.replace`, one of the audit's own inputs
doctored, or (for the balance identities, which hold by the report's view
formulas) the view whose formula the check guards patched.  The
bitwise-identity guarantee (audit-on runs equal plain runs) lives in
``tests/scenarios/test_observatory_scenarios.py``.
"""

import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from fleet_specs import pixel_rack_spec
from repro.fleet import CarbonBufferDispatch, DiurnalDemand, FleetSimulation
from repro.fleet.reporting import FleetReport
from repro.fleet.scheduler import GreedyLowestIntensityRouting
from repro.scenarios import ScenarioRunner
from repro.telemetry import Telemetry
from repro.telemetry.observatory import (
    AuditReport,
    AuditViolation,
    audit_fleet_run,
)
from repro.telemetry.observatory import audit as audit_module

N_DAYS = 3
DEMAND = DiurnalDemand(mean_rps=500.0)

#: Checks every audited run makes: 3 allocation, 3 balance, 3 sign,
#: 2 SoC and 3 churn checks.
CHECKS = 14
#: Plus the two clip-accounting recounts when a dispatch policy ran.
DISPATCH_CHECKS = CHECKS + 2


def _rack():
    (site,) = ScenarioRunner(
        pixel_rack_spec(counts=(30, 15), n_trace_days=N_DAYS, seed=4)
    ).build_sites()
    return site


def _audited_run(monkeypatch, dispatch):
    """A small simulated run's report and the audit's other arguments,
    captured from the simulation's own audit call."""
    calls = []

    def capture(report, **kwargs):
        calls.append((report, kwargs))
        return audit_fleet_run(report, **kwargs)

    monkeypatch.setattr(audit_module, "audit_fleet_run", capture)
    simulation = FleetSimulation(
        [_rack()], GreedyLowestIntensityRouting(), DEMAND,
        dispatch=dispatch, audit=True,
    )
    report = simulation.run(N_DAYS)
    assert simulation.audit_report.ok, simulation.audit_report.render()
    ((audited, kwargs),) = calls
    assert audited is report
    # The plain simulation records no telemetry.
    assert kwargs.pop("telemetry") is None
    return report, kwargs


@pytest.fixture
def dispatched(monkeypatch):
    return _audited_run(monkeypatch, CarbonBufferDispatch())


def _failed(report, kwargs):
    audit = audit_fleet_run(report, **kwargs)
    assert not audit.ok
    return [violation.check for violation in audit.violations]


def _bumped(matrix, delta, index=(0, 0)):
    doctored = np.array(matrix, copy=True)
    doctored[index] += delta
    return doctored


def test_audit_takes_the_report_and_at_most_seven_keywords():
    parameters = inspect.signature(audit_fleet_run).parameters
    (first, *rest) = parameters.values()
    assert first.name == "report" and first.kind is first.POSITIONAL_OR_KEYWORD
    assert all(p.kind is p.KEYWORD_ONLY for p in rest)
    assert len(rest) <= 7


def test_simulated_dispatch_run_passes_every_check(dispatched):
    report, kwargs = dispatched
    tele = Telemetry()
    audit = audit_fleet_run(report, **kwargs, telemetry=tele)
    assert audit.ok and audit.checks == DISPATCH_CHECKS
    assert audit.render() == (
        f"audit: all {DISPATCH_CHECKS} invariant checks passed (0 violations)"
    )
    assert tele.counters["audit.checks"] == DISPATCH_CHECKS
    assert tele.counters["audit.violations"] == 0
    # The run cycled both packs' batteries, so the energy checks see load.
    assert np.all(report.cohort_battery_discharge_kwh() > 0)


def test_run_without_dispatch_skips_the_clip_recount(monkeypatch):
    report, kwargs = _audited_run(monkeypatch, None)
    assert kwargs["shortfall_j"] is None and kwargs["min_soc"] is None
    audit = audit_fleet_run(report, **kwargs)
    assert audit.ok and audit.checks == CHECKS


# Each doctoring of the report's stored fields, and the checks it must trip.
REPORT_DOCTORINGS = {
    "allocation_nonnegative": lambda r: dict(
        cohort_served_rps=_bumped(
            r.cohort_served_rps, -1.0 - r.cohort_served_rps[0, 0]
        )
    ),
    "allocation_within_capacity": lambda r: dict(
        cohort_served_rps=_bumped(r.cohort_served_rps, 1e6)
    ),
    "grid_nonnegative": lambda r: dict(
        cohort_battery_kwh=_bumped(r.cohort_battery_kwh, 1e3)
    ),
    "charge_nonnegative": lambda r: dict(
        cohort_charge_kwh=_bumped(r.cohort_charge_kwh, -1.0)
    ),
    "battery_within_device_load": lambda r: dict(
        cohort_battery_kwh=_bumped(
            r.cohort_battery_kwh,
            r.cohort_energy_kwh[0, 0] - r.cohort_battery_kwh[0, 0] + 1e-3,
        )
    ),
    "soc_floor": lambda r: dict(cohort_soc=_bumped(r.cohort_soc, -1.0)),
    "soc_ceiling": lambda r: dict(cohort_soc=_bumped(r.cohort_soc, 1.0)),
    "clip_count_consistent": lambda r: dict(
        clipped_setpoints=r.clipped_setpoints + 1
    ),
    "clip_energy_consistent": lambda r: dict(
        clipped_energy_kwh=r.clipped_energy_kwh + 1.0
    ),
    # The last day's end count starts no later day, so only its own flow
    # stops balancing.
    "churn_count_conservation": lambda r: dict(
        cohort_active=_bumped(r.cohort_active, 1, (-1, 0))
    ),
    "churn_counts_nonnegative": lambda r: dict(
        cohort_active=_bumped(
            r.cohort_active, -1 - r.cohort_active[-1, 0], (-1, 0)
        )
    ),
    "churn_carbon_conservation": lambda r: dict(
        cohort_replacement_carbon_g=_bumped(r.cohort_replacement_carbon_g, 1.0)
    ),
}


@pytest.mark.parametrize("check", sorted(REPORT_DOCTORINGS))
def test_a_doctored_report_fails_its_check(dispatched, check):
    report, kwargs = dispatched
    doctored = dataclasses.replace(report, **REPORT_DOCTORINGS[check](report))
    assert check in _failed(doctored, kwargs)


def test_doctored_demand_fails_the_demand_bound(dispatched):
    report, kwargs = dispatched
    kwargs = {**kwargs, "demand_rps": kwargs["demand_rps"] * 0.5}
    assert _failed(report, kwargs) == ["allocation_within_demand"]


def test_a_doctored_retirement_count_fails_device_conservation(dispatched):
    report, kwargs = dispatched
    kwargs = {**kwargs, "retirements": _bumped(kwargs["retirements"], 1)}
    assert _failed(report, kwargs) == ["churn_count_conservation"]


# Each balance identity holds by a view's formula; a view that drifts from
# the stored fields must trip the check that guards it, and only that one.
VIEW_DRIFTS = {
    "site_meter_balance": "energy_kwh",
    "site_serving_balance": "grid_kwh",
    "cohort_serving_balance": "cohort_grid_kwh",
}


@pytest.mark.parametrize("check", sorted(VIEW_DRIFTS))
def test_a_drifting_view_fails_its_balance(monkeypatch, dispatched, check):
    report, kwargs = dispatched
    name = VIEW_DRIFTS[check]
    view = getattr(FleetReport, name)
    monkeypatch.setattr(
        FleetReport, name, property(lambda self: view.fget(self) + 1e-3)
    )
    failed = _failed(report, kwargs)
    assert failed == [check]


def test_violations_land_in_telemetry(dispatched):
    report, kwargs = dispatched
    doctored = dataclasses.replace(
        report,
        cohort_soc=_bumped(report.cohort_soc, 1.0),
        clipped_setpoints=report.clipped_setpoints + 5,
    )
    tele = Telemetry()
    audit = audit_fleet_run(doctored, **kwargs, telemetry=tele)
    failed = {violation.check for violation in audit.violations}
    assert failed == {"soc_ceiling", "clip_count_consistent"}
    assert "FAILED" in audit.render()
    assert tele.counters["audit.checks"] == DISPATCH_CHECKS
    assert tele.counters["audit.violations"] == audit.total_violations
    assert {event["kind"] for event in tele.events} == {"audit.violation"}
    assert {event["check"] for event in tele.events} == failed


def test_audit_report_rendering_lists_each_failure():
    report = AuditReport(
        checks=13,
        violations=(
            AuditViolation(check="soc_floor", count=3, max_error=0.01),
        ),
    )
    text = report.render()
    assert "1 of 13 invariant checks FAILED" in text
    assert "soc_floor: 3 cells" in text


def test_a_run_without_the_audit_never_imports_it():
    code = (
        "import sys\n"
        "from repro import get_scenario, run_scenario\n"
        "run_scenario(get_scenario('carbon-buffer')"
        ".with_overrides({'duration_days': 1}))\n"
        "assert 'repro.telemetry.observatory.audit' not in sys.modules\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
