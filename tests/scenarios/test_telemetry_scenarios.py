"""Telemetry must observe, never perturb: bitwise identity and determinism.

The tentpole invariant of the telemetry subsystem is that instrumentation
reads the wall clock and appends to Python lists — it never draws RNG,
reorders floating-point reductions, or feeds anything back into the
simulation.  These tests lock that in: every registry preset must produce a
bitwise-identical report with telemetry on and off, and an instrumented
parallel sweep must fold the exact counters a serial one does.
"""

import dataclasses

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.scenarios.sweep import sweep_scenario
from repro.telemetry import Telemetry

#: Short-horizon overrides so every preset runs in a fraction of a second.
FAST = {"duration_days": 2, "routing.latency_probe_s": 0.0}


def _fast_spec(name, keep_probe=False):
    overrides = dict(FAST)
    if keep_probe:
        del overrides["routing.latency_probe_s"]
    return get_scenario(name).with_overrides(overrides)


def _assert_reports_identical(first, second):
    for field in dataclasses.fields(first):
        a = getattr(first, field.name)
        b = getattr(second, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"report field {field.name} differs"
        else:
            assert a == b, f"report field {field.name} differs: {a!r} != {b!r}"


@pytest.mark.parametrize("name", scenario_names())
def test_telemetry_on_is_bitwise_identical_to_off(name):
    # Keep the latency probe on for one preset so the probe path is
    # covered by the identity check too.
    spec = _fast_spec(name, keep_probe=(name == "two-site-asymmetric"))
    plain = ScenarioRunner(spec).run()
    instrumented = ScenarioRunner(spec, telemetry=Telemetry()).run()

    _assert_reports_identical(plain.report, instrumented.report)
    assert plain.cci_g_per_request == instrumented.cci_g_per_request
    assert plain.usd_per_request == instrumented.usd_per_request
    plain_summary = plain.summary_dict()
    instrumented_summary = instrumented.summary_dict()
    # The telemetry block is additive; everything else must match exactly.
    instrumented_summary.pop("telemetry", None)
    assert plain_summary == instrumented_summary


def test_summary_has_telemetry_block_only_when_instrumented():
    spec = _fast_spec("carbon-buffer")
    assert "telemetry" not in ScenarioRunner(spec).run().summary_dict()
    summary = ScenarioRunner(spec, telemetry=Telemetry()).run().summary_dict()
    assert "fleet.n_devices" in summary["telemetry"]
    assert "dispatch.clipped_setpoints" in summary["telemetry"]


def test_scenario_span_tree_invariants():
    spec = _fast_spec("carbon-buffer")
    tele = Telemetry()
    ScenarioRunner(spec, telemetry=tele).run()

    paths = [span.path for span in tele.spans]
    assert "scenario" in paths
    assert "scenario/build_sites" in paths
    assert "scenario/main_run" in paths
    by_index = {span.path: span.index for span in tele.spans}
    for span in tele.spans:
        # Indices follow completion order and are dense.
        assert tele.spans[span.index] is span
        if span.depth > 1:
            parent = span.path.rsplit("/", 1)[0]
            assert parent in by_index, f"span {span.path} has no parent span"
            assert by_index[parent] > span.index, "parent completed before child"
    # Per-day phases run exactly once per simulated day, under main_run only.
    totals = tele.phase_totals()
    for phase in ("allocate_day", "dispatch_day", "step_population"):
        calls, total_s = totals[f"scenario/main_run/{phase}"]
        assert calls == spec.duration_days
        assert total_s >= 0
        assert phase not in totals  # never recorded as a bare top-level path


def test_sweep_counters_identical_serial_vs_parallel():
    spec = _fast_spec("paper-baseline")
    axes = {"demand.fraction_of_capacity": [0.3, 0.6, 0.3]}
    serial_tele, parallel_tele = Telemetry(), Telemetry()
    serial = sweep_scenario(spec, axes, telemetry=serial_tele)
    parallel = sweep_scenario(spec, axes, jobs=2, telemetry=parallel_tele)

    assert serial_tele.counters == parallel_tele.counters
    assert serial_tele.counters["sweep.cells"] == 3
    assert serial_tele.counters["sweep.unique_cells"] == 2
    assert serial_tele.counters["sweep.dedup_hits"] == 1
    # Children fold in grid order, not worker completion order.
    assert [c["name"] for c in serial_tele.children] == [
        c["name"] for c in parallel_tele.children
    ]
    for ours, theirs in zip(serial.cells, parallel.cells):
        assert ours.cci_g_per_request == theirs.cci_g_per_request
        assert ours.usd_per_request == theirs.usd_per_request


def test_forecast_sweep_runs_no_hindsight_twins():
    spec = _fast_spec("forecast-buffer").with_overrides(
        {"forecast.model": "persistence"}
    )
    tele = Telemetry()
    sweep_scenario(spec, {"forecast.noise_sigma": [0.1, 0.3]}, telemetry=tele)
    # Each cell replays its own hindsight baseline: one child per grid
    # cell, no twin runs to count, and the baseline span holds no phases.
    assert len(tele.children) == 2
    assert not any("twin" in name for name in tele.counters)
    for child in tele.children:
        paths = [row["path"] for row in child["phases"]]
        assert "scenario/hindsight_twin" in paths
        assert not any(path.startswith("scenario/hindsight_twin/") for path in paths)


def test_clipped_setpoint_counter_matches_report():
    spec = _fast_spec("carbon-buffer")
    tele = Telemetry()
    result = ScenarioRunner(spec, telemetry=tele).run()
    report = result.report
    assert tele.counters["dispatch.clipped_setpoints"] == report.clipped_setpoints
    assert tele.counters["dispatch.clipped_kwh"] == pytest.approx(
        report.clipped_energy_kwh
    )
    summary = result.summary_dict()
    assert summary["clipped_setpoints"] == report.clipped_setpoints
    assert summary["clipped_energy_kwh"] == pytest.approx(
        report.clipped_energy_kwh
    )


def test_latency_probe_counts_its_queued_requests():
    spec = _fast_spec("two-site-asymmetric", keep_probe=True).with_overrides(
        {"routing.latency_probe_s": 0.25}
    )
    tele = Telemetry()
    result = ScenarioRunner(spec, telemetry=tele).run()
    latency = result.latency
    assert tele.counters["probe.offered"] == latency.offered
    assert tele.counters["probe.completed"] == latency.completed
    # Carbon-aware routing queues requests at the clean site before it
    # spills to the dirty one; a request is counted at most once.
    assert 0 < tele.counters["probe.queued"] <= tele.counters["probe.offered"]
    # Only arrivals during a backlog take the penalty scan.
    assert 0 < tele.counters["probe.scanned"] < tele.counters["probe.offered"]


def test_probe_counters_absent_when_the_probe_is_off():
    tele = Telemetry()
    result = ScenarioRunner(_fast_spec("two-site-asymmetric"), telemetry=tele).run()
    assert result.latency is None
    for name in ("probe.queued", "probe.scanned", "probe.offered", "probe.completed"):
        assert tele.counters.get(name, 0) == 0, name
