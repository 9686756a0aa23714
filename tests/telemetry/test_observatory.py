"""Unit tests for the run observatory: trace, diff, progress, bench, audit.

Everything here runs on synthetic telemetry/manifests — no simulation.
The bitwise-identity guarantees (progress-on / audit-on runs equal plain
runs) live in ``tests/scenarios/test_observatory_scenarios.py``; this file
covers each tool's own mechanics.
"""

import io
import json
import os

import numpy as np
import pytest

from repro import units
from repro.telemetry import Telemetry, build_manifest, dump_run
from repro.telemetry.observatory import (
    AuditReport,
    AuditViolation,
    DiffError,
    DiffField,
    ProgressReporter,
    ProgressTelemetry,
    audit_fleet_run,
    append_history,
    bench_records,
    check_bench,
    chrome_trace,
    diff_runs,
    export_chrome_trace,
    load_run_source,
    read_history,
    render_diff,
    render_history,
    rolling_baseline,
    trace_track_count,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------


def _instrumented_run():
    tele = Telemetry()
    with tele.span("scenario"):
        with tele.span("main_run"):
            with tele.span("dispatch_day", calls=2):
                pass
    tele.gauge("fleet.n_devices", 64)
    return tele


def _shard_manifest(name):
    shard = Telemetry()
    with shard.span("dispatch_shard"):
        with shard.span("replay"):
            pass
    return build_manifest(shard, name=name)


def test_chrome_trace_one_track_per_shard():
    tele = _instrumented_run()
    tele.add_child(_shard_manifest("dispatch_shard[0/2]"))
    tele.add_child(_shard_manifest("dispatch_shard[1/2]"))
    manifest = build_manifest(tele, name="sharded", seed=0)
    trace = chrome_trace(manifest, tele.spans)

    assert trace["displayTimeUnit"] == "ms"
    assert trace_track_count(trace) == 3  # main + one per shard
    names = {
        (e["tid"], e["args"]["name"])
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert (0, "main") in names
    assert (1, "dispatch_shard[0/2]") in names
    assert (2, "dispatch_shard[1/2]") in names
    for event in trace["traceEvents"]:
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
    # Real spans keep their recorded path and call count.
    dispatch = [
        e
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e["tid"] == 0 and e["name"] == "dispatch_day"
    ]
    assert dispatch[0]["args"]["calls"] == 2
    assert dispatch[0]["args"]["path"] == "scenario/main_run/dispatch_day"


def test_child_phase_tree_nests_and_sequences():
    phases = [
        {"path": "a", "calls": 1, "total_s": 2.0, "fraction": 0.5},
        {"path": "a/inner", "calls": 4, "total_s": 1.0, "fraction": 0.25},
        {"path": "b", "calls": 1, "total_s": 2.0, "fraction": 0.5},
    ]
    child = {"name": "cell", "phases": phases, "children": []}
    tele = _instrumented_run()
    manifest = build_manifest(tele, name="parent")
    manifest["children"] = [child]
    trace = chrome_trace(manifest, tele.spans)

    synth = {
        e["name"]: e
        for e in trace["traceEvents"]
        if e["ph"] == "X" and e["tid"] == 1
    }
    assert synth["a"]["ts"] == 0.0
    assert synth["inner"]["ts"] == synth["a"]["ts"]  # nested at parent start
    assert synth["b"]["ts"] == synth["a"]["dur"]  # sibling laid out after


def test_export_chrome_trace_writes_wellformed_json(tmp_path):
    tele = _instrumented_run()
    jsonl = str(tmp_path / "run.jsonl")
    dump_run(jsonl, tele, name="export-me", spec_sha256="ab" * 32, seed=9)
    out = str(tmp_path / "trace.json")
    trace = export_chrome_trace(jsonl, out)
    with open(out, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded == json.loads(json.dumps(trace))
    assert loaded["otherData"]["name"] == "export-me"
    assert loaded["otherData"]["spec_sha256"] == "ab" * 32
    assert loaded["otherData"]["seed"] == 9


# ---------------------------------------------------------------------------
# Run diffing
# ---------------------------------------------------------------------------


def test_diff_field_equality_is_bitwise():
    assert DiffField("s", "f", 1.5, 1.5).equal
    assert not DiffField("s", "f", 1.5, 1.5 + 1e-15).equal
    assert not DiffField("s", "f", 1, 1.0).equal  # type mismatch, no coercion
    assert DiffField("s", "f", 1.0, 3.0).delta == 2.0
    assert DiffField("s", "f", 2.0, 3.0).rel_delta == pytest.approx(0.5)
    assert DiffField("s", "f", "x", "y").delta is None


def test_diff_identical_telemetry_files_is_all_equal(tmp_path):
    import shutil

    tele = _instrumented_run()
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    dump_run(a, tele, name="same", seed=1)
    shutil.copy(a, b)  # wall_s is stamped at dump time; compare equal files
    diff = diff_runs(load_run_source(a), load_run_source(b))
    assert diff.all_equal
    text = render_diff(diff)
    assert "runs are identical on every compared field" in text
    assert "≠" not in text


def test_diff_reports_phase_and_gauge_deltas(tmp_path):
    a_tele, b_tele = _instrumented_run(), _instrumented_run()
    b_tele.gauge("fleet.n_devices", 128)  # overwrite: 64 -> 128
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    dump_run(a, a_tele, name="run", seed=1)
    dump_run(b, b_tele, name="run", seed=1)
    diff = diff_runs(load_run_source(a), load_run_source(b))
    assert not diff.all_equal
    differing = {field.field for field in diff.differing}
    assert "fleet.n_devices" in differing
    assert "≠" in render_diff(diff)


def test_diff_unresolvable_target_raises():
    with pytest.raises(DiffError, match="no store available"):
        load_run_source("0123abcd", store=None)


# ---------------------------------------------------------------------------
# Live progress
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_progress_reporter_snapshot_and_eta():
    clock = FakeClock()
    reporter = ProgressReporter(
        total_days=10, stream=io.StringIO(), interval_s=0.0, clock=clock
    )
    reporter.set_fleet_size(1000)
    clock.now = 2.0
    reporter.day_done(5)
    snap = reporter.snapshot()
    assert snap["kind"] == "progress"
    assert snap["days_done"] == 5 and snap["total_days"] == 10
    assert snap["fraction"] == pytest.approx(0.5)
    assert snap["eta_s"] == pytest.approx(2.0)  # half done in 2s
    assert snap["device_days_per_s"] == pytest.approx(1000 * 5 / 2.0)


def test_progress_rate_limiting_and_forced_close():
    clock = FakeClock()
    stream = io.StringIO()
    reporter = ProgressReporter(
        total_days=100, stream=stream, interval_s=1.0, clock=clock
    )
    for _ in range(50):
        clock.now += 0.01  # 50 ticks inside one interval
        reporter.day_done()
    assert reporter.emitted == 1  # first emit, then throttled
    clock.now += 2.0
    reporter.day_done()
    assert reporter.emitted == 2
    reporter.close()  # forces a final heartbeat regardless of the interval
    assert reporter.emitted == 3
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("progress: ") for line in lines)
    assert "51/100 days" in lines[-1]


def test_progress_jsonl_output(tmp_path):
    clock = FakeClock()
    path = str(tmp_path / "progress.jsonl")
    reporter = ProgressReporter(
        total_cells=4, path=path, interval_s=0.0, clock=clock
    )
    for _ in range(4):
        clock.now += 1.0
        reporter.cell_done()
    reporter.close()
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert [r["cells_done"] for r in records] == [1, 2, 3, 4, 4]
    assert records[-1]["fraction"] == 1.0
    assert records[-1]["eta_s"] == 0.0


def test_progress_telemetry_counts_step_population_days():
    reporter = ProgressReporter(stream=io.StringIO(), interval_s=1e9)
    tele = ProgressTelemetry(reporter)
    with tele.span("scenario"):
        with tele.span("main_run"):
            with tele.span("step_population", calls=3):
                pass
            with tele.span("step_population"):
                pass
            with tele.span("dispatch_day", calls=5):
                pass
    tele.gauge("fleet.n_devices", 42)
    assert reporter.days_done == 4  # 3 batched + 1; other phases ignored
    assert reporter.n_devices == 42
    # The underlying Telemetry recorded every span.
    totals = tele.phase_totals()
    assert totals["scenario/main_run/dispatch_day"][0] == 5


def test_progress_reporter_rejects_negative_interval():
    with pytest.raises(ValueError, match="interval_s"):
        ProgressReporter(interval_s=-1.0)


# ---------------------------------------------------------------------------
# Bench history
# ---------------------------------------------------------------------------


def _bench_payload(wall_s=1.0, case="greedy-year"):
    return {
        "benchmark": "fleet_scaling",
        "cases": [
            {
                "case": case,
                "devices": 10000,
                "n_days": 366,
                "block_days": 1,
                "shards": 1,
                "wall_s": wall_s,
                "device_days_per_s": 10000 * 366 / wall_s,
            }
        ],
    }


def test_bench_records_carry_provenance():
    records = bench_records(
        _bench_payload(), sha="cafe" * 10, recorded_at="2026-01-01T00:00:00Z"
    )
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "bench"
    assert record["case"] == "greedy-year"
    assert record["wall_s"] == 1.0
    assert record["git_sha"] == "cafe" * 10
    assert record["recorded_at"] == "2026-01-01T00:00:00Z"


def test_history_round_trip_and_rolling_baseline(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    assert read_history(path) == []  # missing file is empty history
    for wall in (1.0, 1.1, 0.9, 5.0, 1.0, 1.05):
        append_history(path, bench_records(_bench_payload(wall), sha="s"))
    history = read_history(path)
    assert len(history) == 6
    # Window 5 drops the oldest record; median shrugs off the 5.0 outlier.
    median, used = rolling_baseline(history, "greedy-year", window=5)
    assert used == 5
    assert median == pytest.approx(1.05)
    assert rolling_baseline(history, "no-such-case") is None


def test_check_bench_flags_regression_and_passes_baseline(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    for wall in (1.0, 1.0, 1.0):
        append_history(path, bench_records(_bench_payload(wall), sha="s"))
    history = read_history(path)

    ok, lines = check_bench(_bench_payload(1.2), history, threshold=0.25)
    assert ok and "[OK]" in lines[0]
    # An injected >25% regression fails the gate.
    ok, lines = check_bench(_bench_payload(1.3), history, threshold=0.25)
    assert not ok and "[REGRESSION]" in lines[0]

    # A named case must have history; an unnamed new case is only noted.
    ok, lines = check_bench(
        _bench_payload(1.0, case="brand-new"), history, cases=["brand-new"]
    )
    assert not ok and "no history" in lines[0]
    ok, lines = check_bench(_bench_payload(1.0, case="brand-new"), history)
    assert ok and "skipped" in lines[0]
    with pytest.raises(Exception, match="missing from the bench snapshot"):
        check_bench(_bench_payload(1.0), history, cases=["no-such-case"])


def test_committed_history_passes_the_gate():
    """The committed snapshot must pass against the committed history.

    The root snapshot is a fixture: the benchmark suite writes its fresh
    timings under ``.bench_out/``, so this asserts repo consistency, not
    machine speed.
    """
    from repro.telemetry.observatory import load_bench_json

    payload = load_bench_json(os.path.join(REPO_ROOT, "BENCH_fleet_scaling.json"))
    history = read_history(os.path.join(REPO_ROOT, "BENCH_history.jsonl"))
    assert history, "committed BENCH_history.jsonl must not be empty"
    ok, lines = check_bench(payload, history, cases=["greedy-year"])
    assert ok, "\n".join(lines)


def test_render_history_filters_by_case():
    history = bench_records(
        _bench_payload(), sha="a" * 40, recorded_at="2026-01-01T00:00:00Z"
    ) + bench_records(
        _bench_payload(2.0, case="other"), sha="a" * 40
    )
    text = render_history(history)
    assert "greedy-year" in text and "other" in text
    assert "a" * 12 in text  # SHA truncated to 12 chars
    filtered = render_history(history, case="other")
    assert "greedy-year" not in filtered
    assert render_history([]) == "(no bench history)"


# ---------------------------------------------------------------------------
# Invariant audit
# ---------------------------------------------------------------------------


def _consistent_run():
    """Small matrices obeying every invariant (2 hours x 2 segments)."""
    alloc = np.array([[1.0, 2.0], [0.0, 1.0]])
    capacity = np.array([[2.0, 2.0], [1.0, 1.0]])
    demand = alloc.sum(axis=1)
    grid = np.array([3.0, 1.0])
    battery = np.array([0.5, 0.0])
    charge = np.array([0.0, 0.25])
    shortfall = np.zeros((2, 2))
    shortfall[0, 1] = 7.2e6  # one genuinely clipped setpoint
    return dict(
        alloc=alloc,
        demand=demand,
        capacity_rows=capacity,
        energy_kwh=grid + charge,
        grid_kwh=grid,
        battery_kwh=battery,
        charge_kwh=charge,
        total_kwh=grid + battery,
        cohort_energy_kwh=grid + battery,
        cohort_grid_kwh=grid,
        cohort_battery_kwh=battery,
        cohort_charge_kwh=charge,
        cohort_soc=np.array([[0.4, 0.9], [0.25, 1.0]]),
        min_soc=0.25,
        shortfall_j=shortfall,
        clipped_setpoints=1,
        clipped_energy_kwh=7.2e6 / units.JOULES_PER_KWH,
    )


def test_audit_passes_on_consistent_run():
    report = audit_fleet_run(**_consistent_run())
    assert report.ok
    assert report.checks == 13
    assert report.total_violations == 0
    assert report.render() == (
        "audit: all 13 invariant checks passed (0 violations)"
    )


def test_audit_without_dispatch_runs_fewer_checks():
    run = _consistent_run()
    run.update(min_soc=None, shortfall_j=None)
    run["cohort_soc"] = np.array([[0.0, 0.5], [0.1, 1.0]])  # floor is now 0
    report = audit_fleet_run(**run)
    assert report.ok
    assert report.checks == 11  # no clip accounting without a replay


def test_audit_catches_doctored_violations():
    run = _consistent_run()
    run["alloc"] = run["alloc"] + 10.0  # beyond capacity and demand
    run["cohort_soc"] = np.array([[0.1, 0.9], [0.25, 1.2]])  # floor + ceiling
    run["clipped_setpoints"] = 5  # disagrees with the shortfall recount
    tele = Telemetry()
    report = audit_fleet_run(**run, telemetry=tele)
    assert not report.ok
    failed = {violation.check for violation in report.violations}
    assert "allocation_within_capacity" in failed
    assert "allocation_within_demand" in failed
    assert "soc_floor" in failed and "soc_ceiling" in failed
    assert "clip_count_consistent" in failed
    assert "FAILED" in report.render()
    # Violations land in telemetry as counters plus structured events.
    assert tele.counters["audit.checks"] == 13
    assert tele.counters["audit.violations"] == report.total_violations
    kinds = {event["kind"] for event in tele.events}
    assert kinds == {"audit.violation"}
    checks_in_events = {event["check"] for event in tele.events}
    assert checks_in_events == failed


def test_audit_catches_energy_imbalance():
    run = _consistent_run()
    run["energy_kwh"] = run["energy_kwh"] + 1e-3  # break the meter balance
    report = audit_fleet_run(**run)
    assert not report.ok
    assert [v.check for v in report.violations] == ["site_meter_balance"]
    assert report.violations[0].max_error == pytest.approx(1e-3)


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


def _churn_matrices():
    """Consistent (3 days x 2 cohorts) churn matrices for the audit."""
    counts_day = np.array([[100, 50], [99, 50], [98, 49]])
    failures = np.array([[1, 0], [2, 1], [0, 0]])
    retirements = np.array([[0, 0], [0, 0], [3, 0]])
    deployed = np.array([[0, 0], [1, 0], [0, 2]])
    active = counts_day + deployed - failures - retirements
    swaps = np.array([[0, 0], [4, 0], [0, 1]])
    embodied = np.array([45_000.0, 16_000.0])
    return dict(
        cohort_counts_day=counts_day,
        cohort_active=active,
        cohort_failures=failures,
        cohort_retirements=retirements,
        cohort_swaps_day=swaps,
        cohort_deployed=deployed,
        cohort_replacement_g=swaps * embodied[None, :],
        cohort_swap_embodied_g=embodied,
    )


def test_audit_churn_conservation_passes_on_consistent_matrices():
    report = audit_fleet_run(**_consistent_run(), **_churn_matrices())
    assert report.ok
    assert report.checks == 16  # 13 energy/alloc checks + 3 churn checks


def test_audit_catches_churn_count_drift():
    churn = _churn_matrices()
    churn["cohort_active"] = churn["cohort_active"] + np.array(
        [[0, 0], [0, 0], [1, 0]]
    )  # one device appears from nowhere on day 3
    report = audit_fleet_run(**_consistent_run(), **churn)
    assert not report.ok
    failed = {violation.check for violation in report.violations}
    assert "churn_count_conservation" in failed


def test_audit_catches_churn_carbon_mismatch():
    churn = _churn_matrices()
    churn["cohort_replacement_g"] = churn["cohort_replacement_g"] + 1.0
    report = audit_fleet_run(**_consistent_run(), **churn)
    assert not report.ok
    assert [v.check for v in report.violations] == [
        "churn_carbon_conservation"
    ]
