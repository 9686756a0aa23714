"""Unit tests for the run observatory: trace, diff, progress, bench.

Everything here runs on synthetic telemetry/manifests — no simulation.
The bitwise-identity guarantees (progress-on / audit-on runs equal plain
runs) live in ``tests/scenarios/test_observatory_scenarios.py``, and the
audit's checks in ``test_audit.py``; this file covers each tool's own
mechanics.
"""

import io
import json
import os

import pytest

from repro.telemetry import Telemetry, build_manifest, dump_run
from repro.telemetry.observatory import (
    DiffError,
    DiffField,
    ProgressReporter,
    ProgressTelemetry,
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
    assert "block_days" not in record and "shards" not in record


def test_history_keeps_every_throughput_a_case_carries(tmp_path):
    payload = _bench_payload()
    payload["cases"][0]["probe_requests_per_s"] = 812345.6
    payload["cases"][0]["probe_s"] = 2.4  # not a throughput: not copied
    path = str(tmp_path / "hist.jsonl")
    append_history(path, bench_records(payload, sha="s"))
    (record,) = read_history(path)
    assert record["probe_requests_per_s"] == 812345.6
    assert record["device_days_per_s"] == 10000 * 366
    assert "probe_s" not in record


def test_history_lines_with_retired_execution_fields_still_parse(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    old = {**bench_records(_bench_payload(2.0), sha="s")[0], "block_days": 1}
    old["shards"] = 2
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(old) + "\n")
    append_history(path, bench_records(_bench_payload(1.0), sha="s"))
    assert len(read_history(path)) == 2
    assert rolling_baseline(read_history(path), "greedy-year")[1] == 2


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
