"""Smoke tests for the ``python -m repro`` command-line surface."""

from functools import partial

import pytest

import repro.analysis
from repro.__main__ import REGISTRY, main
from repro.analysis.figures import FIGURE7_DEFAULT_QPS


def test_list_shows_targets_and_scenario_hint(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "fleet" in out
    assert "scenarios" in out


def test_scenarios_lists_every_preset(capsys):
    from repro.scenarios import scenario_names

    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_run_scenario_with_overrides(capsys):
    code = main(
        [
            "run",
            "scenario",
            "two-site-asymmetric",
            "--set",
            "duration_days=2",
            "--set",
            "sites.0.devices.count=20",
            "--set",
            "sites.1.devices.count=20",
            "--set",
            "routing.latency_probe_s=0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: two-site-asymmetric (2 days" in out
    assert "fleet CCI" in out
    assert "$/request" in out


def test_sweep_scenario_tabulates_grid(capsys):
    code = main(
        [
            "sweep",
            "scenario",
            "carbon-buffer",
            "--set",
            "routing.policy=round-robin,greedy-lowest-intensity",
            "--set",
            "duration_days=2",
            "--set",
            "sites.0.devices.count=10",
            "--set",
            "sites.1.devices.count=10",
            "--set",
            "routing.latency_probe_s=0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep of 'carbon-buffer' over 2 cells" in out
    assert "round-robin" in out and "greedy-lowest-intensity" in out
    assert "CCI (g/req)" in out
    assert "lowest CCI" in out


def test_sweep_requires_scenario_form(capsys):
    assert main(["sweep", "carbon-buffer"]) == 2
    assert "usage: python -m repro sweep scenario" in capsys.readouterr().out


def test_sweep_unknown_scenario_lists_names(capsys):
    assert main(["sweep", "scenario", "nope", "--set", "duration_days=1"]) == 2
    out = capsys.readouterr().out
    assert "unknown scenario" in out and "carbon-buffer" in out


def test_sweep_invalid_axis_is_reported(capsys):
    code = main(
        ["sweep", "scenario", "carbon-buffer", "--set", "duration_dayz=1,2"]
    )
    assert code == 2
    assert "duration_dayz" in capsys.readouterr().out


def test_sweep_duplicate_axis_is_rejected(capsys):
    code = main(
        [
            "sweep",
            "scenario",
            "carbon-buffer",
            "--set",
            "duration_days=1,2",
            "--set",
            "duration_days=3",
        ]
    )
    assert code == 2
    assert "duplicate sweep axis" in capsys.readouterr().out


def test_run_scenario_typo_lists_names(capsys):
    assert main(["run", "scenario", "two-sight-asymmetric"]) == 2
    out = capsys.readouterr().out
    assert "unknown scenario" in out
    assert "two-site-asymmetric" in out


def test_run_scenario_invalid_override_is_reported(capsys):
    code = main(
        ["run", "scenario", "two-site-asymmetric", "--set", "duration_dayz=2"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "duration_dayz" in out


def test_run_scenario_non_finite_override_exits_2(capsys):
    code = main(
        [
            "run",
            "scenario",
            "two-site-asymmetric",
            "--set",
            "churn.annual_failure_rate=NaN",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "must be a finite number" in out


def test_mixed_site_devices_override_exits_2(capsys):
    code = main(
        [
            "run",
            "scenario",
            "heterogeneous-cohorts",
            "--set",
            "sites.0.devices.count=5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "sites.0: devices must be left at its default" in out


def test_retired_execution_knob_is_an_unknown_override(capsys):
    code = main(
        ["run", "scenario", "carbon-buffer", "--set", "execution.shards=2"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "unknown override path 'execution.shards'" in out
    assert "available: audit" in out


def test_run_target_typo_lists_targets(capsys):
    assert main(["run", "fgi5"]) == 2
    out = capsys.readouterr().out
    assert "unknown target" in out
    assert "fig5" in out


def test_set_rejected_for_figure_targets(capsys):
    assert main(["run", "fig1", "--set", "duration_days=2"]) == 2
    assert "--set" in capsys.readouterr().out


def test_run_fast_figure_target(capsys):
    assert main(["run", "fig1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


@pytest.mark.parametrize("target", sorted(REGISTRY))
def test_every_registry_target_exits_0(target, capsys, monkeypatch):
    # Figures 7 and 8 run the serving simulation for seconds of virtual
    # time per point; a shortened grid drives the same builders and text.
    monkeypatch.setattr(
        repro.analysis,
        "fig7_deathstarbench",
        partial(
            repro.analysis.fig7_deathstarbench,
            qps_grid={name: qps[:2] for name, qps in FIGURE7_DEFAULT_QPS.items()},
            duration_s=0.2,
            warmup_s=0.05,
        ),
    )
    monkeypatch.setattr(
        repro.analysis,
        "fig8_cpu_utilization",
        partial(repro.analysis.fig8_cpu_utilization, duration_s=0.3, warmup_s=0.05),
    )
    assert main(["run", target]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"=== {target}: {REGISTRY[target][0]} ===\n")
    assert len(out.splitlines()) > 2


FAST_SCENARIO_ARGS = [
    "--set",
    "duration_days=2",
    "--set",
    "sites.0.devices.count=10",
    "--set",
    "sites.1.devices.count=10",
    "--set",
    "routing.latency_probe_s=0",
]


def test_run_scenario_telemetry_writes_valid_jsonl(capsys, tmp_path):
    from repro.telemetry import read_jsonl

    out_path = str(tmp_path / "run.jsonl")
    code = main(
        ["run", "scenario", "carbon-buffer"]
        + FAST_SCENARIO_ARGS
        + ["--telemetry", out_path]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"telemetry written to {out_path}" in out
    manifest, spans = read_jsonl(out_path)
    assert manifest["name"] == "carbon-buffer"
    assert manifest["seed"] is not None
    assert len(manifest["spec_sha256"]) == 64
    assert any(span.path == "scenario/main_run" for span in spans)


def test_sweep_telemetry_nests_cell_manifests(capsys, tmp_path):
    from repro.telemetry import read_jsonl

    out_path = str(tmp_path / "sweep.jsonl")
    code = main(
        [
            "sweep",
            "scenario",
            "carbon-buffer",
            "--set",
            "routing.policy=round-robin,greedy-lowest-intensity",
        ]
        + FAST_SCENARIO_ARGS
        + ["--telemetry", out_path]
    )
    assert code == 0
    assert "telemetry written to" in capsys.readouterr().out
    manifest, _ = read_jsonl(out_path)
    assert manifest["name"] == "sweep:carbon-buffer"
    assert len(manifest["children"]) == 2
    assert manifest["counters"]["sweep.cells"] == 2
    assert "routing.policy" in manifest["context"]["axes"]


def test_telemetry_flag_rejected_for_figure_targets(capsys):
    assert main(["run", "fig1", "--telemetry", "out.jsonl"]) == 2
    assert "--telemetry" in capsys.readouterr().out


def test_profile_scenario_prints_phase_breakdown(capsys):
    code = main(["profile", "scenario", "carbon-buffer"] + FAST_SCENARIO_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "profile: carbon-buffer" in out
    assert "spec sha256:" in out
    assert "main_run" in out and "dispatch_day" in out
    assert "counters:" in out and "dispatch.clipped_setpoints" in out


def test_profile_requires_scenario_form(capsys):
    assert main(["profile", "carbon-buffer"]) == 2
    assert "usage: python -m repro profile scenario" in capsys.readouterr().out


def test_telemetry_validate_accepts_good_and_rejects_bad(capsys, tmp_path):
    out_path = str(tmp_path / "run.jsonl")
    assert (
        main(
            ["run", "scenario", "carbon-buffer"]
            + FAST_SCENARIO_ARGS
            + ["--telemetry", out_path]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["telemetry", "validate", out_path]) == 0
    assert "valid" in capsys.readouterr().out

    bad_path = tmp_path / "bad.jsonl"
    bad_path.write_text("{not json\n")
    assert main(["telemetry", "validate", str(bad_path)]) == 1
    assert "invalid telemetry file" in capsys.readouterr().out

    assert main(["telemetry", "validate", str(tmp_path / "missing.jsonl")]) == 2


# ---------------------------------------------------------------------------
# Experiment store
# ---------------------------------------------------------------------------

STORE_SWEEP_ARGS = [
    "sweep",
    "scenario",
    "carbon-buffer",
    "--set",
    "duration_days=2",
    "--set",
    "demand.fraction_of_capacity=0.3,0.6",
]


def test_sweep_with_store_caches_second_pass(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    t1, t2 = str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")
    assert main(STORE_SWEEP_ARGS + ["--store", store_dir, "--telemetry", t1]) == 0
    first = capsys.readouterr().out
    assert f"experiment store: {store_dir} (2 entries)" in first

    assert main(STORE_SWEEP_ARGS + ["--store", store_dir, "--telemetry", t2]) == 0
    second = capsys.readouterr().out

    import json

    manifest1 = json.loads(open(t1).readline())
    manifest2 = json.loads(open(t2).readline())
    assert manifest1["counters"]["store.misses"] == 2
    assert manifest1["counters"]["store.writes"] == 2
    assert manifest2["counters"]["store.hits"] == 2
    assert manifest2["counters"]["store.misses"] == 0
    # Identical table either way: cached cells are bitwise-identical.
    assert first.split("telemetry written")[0].split("experiment store")[0] == (
        second.split("telemetry written")[0].split("experiment store")[0]
    )


def test_run_scenario_with_store_hits_on_rerun(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    args = [
        "run",
        "scenario",
        "carbon-buffer",
        "--set",
        "duration_days=2",
        "--store",
        store_dir,
    ]
    assert main(args) == 0
    assert "stored in experiment store" in capsys.readouterr().out
    assert main(args) == 0
    assert "loaded from experiment store" in capsys.readouterr().out


def test_store_ls_show_and_gc(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    assert main(STORE_SWEEP_ARGS + ["--store", store_dir]) == 0
    capsys.readouterr()

    assert main(["store", "ls", "--store", store_dir]) == 0
    listing = capsys.readouterr().out
    assert "carbon-buffer" in listing and "2 stored experiment(s)" in listing

    from repro.store import ExperimentStore

    key = ExperimentStore(store_dir).keys()[0]
    assert main(["store", "show", key[:10], "--store", store_dir]) == 0
    shown = capsys.readouterr().out
    assert f"entry {key}" in shown and "fleet CCI" in shown

    import os

    open(os.path.join(store_dir, "results", ".debris.json.x.tmp"), "w").close()
    assert main(["store", "gc", "--store", store_dir]) == 0
    assert "removed 1 file(s)" in capsys.readouterr().out


def test_store_report_scenario_renders_from_store_alone(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    assert main(STORE_SWEEP_ARGS + ["--store", store_dir]) == 0
    sweep_table = capsys.readouterr().out.split("\nexperiment store")[0]

    import pytest as _pytest
    from repro.scenarios import ScenarioRunner

    def explode(self):
        raise AssertionError("store report must not simulate")

    monkey = _pytest.MonkeyPatch()
    monkey.setattr(ScenarioRunner, "run", explode)
    try:
        assert main(
            [
                "store",
                "report",
                "scenario",
                "carbon-buffer",
                "--set",
                "duration_days=2",
                "--set",
                "demand.fraction_of_capacity=0.3,0.6",
                "--store",
                store_dir,
            ]
        ) == 0
        assert capsys.readouterr().out.strip() == sweep_table.strip()
        assert main(["store", "report", "summary", "--store", store_dir]) == 0
        assert "carbon-buffer" in capsys.readouterr().out
    finally:
        monkey.undo()


def test_store_report_missing_cells_fails_loudly(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    assert (
        main(
            [
                "store",
                "report",
                "scenario",
                "carbon-buffer",
                "--set",
                "duration_days=2",
                "--store",
                store_dir,
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "store error" in out and "--store" in out


def test_store_show_unknown_hash_errors(capsys, tmp_path):
    assert main(["store", "show", "abc123", "--store", str(tmp_path / "es")]) == 1
    assert "store error" in capsys.readouterr().out


def test_store_usage_on_bad_form(capsys, tmp_path):
    assert main(["store", "frobnicate", "--store", str(tmp_path / "es")]) == 2
    out = capsys.readouterr().out
    assert "usage:" in out and "registered reports:" in out


def test_store_flag_rejected_for_figure_targets(capsys):
    assert main(["run", "fig1", "--store", "somewhere"]) == 2
    assert "--store only applies to scenario runs" in capsys.readouterr().out


def test_store_show_renders_profile_when_manifest_stored(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    out_path = str(tmp_path / "run.jsonl")
    assert (
        main(
            ["run", "scenario", "carbon-buffer"]
            + FAST_SCENARIO_ARGS
            + ["--store", store_dir, "--telemetry", out_path]
        )
        == 0
    )
    capsys.readouterr()
    from repro.store import ExperimentStore

    key = ExperimentStore(store_dir).keys()[0]
    assert main(["store", "show", key[:10], "--store", store_dir]) == 0
    shown = capsys.readouterr().out
    assert "manifest: yes" in shown
    assert "profile: carbon-buffer" in shown
    assert "main_run" in shown and "counters:" in shown


# ---------------------------------------------------------------------------
# Run observatory: trace, diff, progress, audit, bench
# ---------------------------------------------------------------------------


def test_telemetry_trace_exports_one_track_per_cell(capsys, tmp_path):
    import json

    jsonl = str(tmp_path / "cells.jsonl")
    assert (
        main(
            [
                "sweep",
                "scenario",
                "carbon-buffer",
                "--set",
                "routing.policy=round-robin,greedy-lowest-intensity",
                "--jobs",
                "2",
            ]
            + FAST_SCENARIO_ARGS
            + ["--telemetry", jsonl]
        )
        == 0
    )
    capsys.readouterr()
    out = str(tmp_path / "trace.json")
    assert main(["telemetry", "trace", jsonl, "-o", out]) == 0
    assert "track(s)" in capsys.readouterr().out
    with open(out, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["displayTimeUnit"] == "ms"
    tracks = {(e["pid"], e["tid"]) for e in trace["traceEvents"]}
    assert len(tracks) == 3  # main + 2 sweep cells
    assert all(e["ph"] in ("X", "M") for e in trace["traceEvents"])

    # Default output path derives from the input stem.
    assert main(["telemetry", "trace", jsonl]) == 0
    capsys.readouterr()
    import os

    assert os.path.exists(str(tmp_path / "cells.trace.json"))


def test_telemetry_trace_missing_and_bad_form(capsys, tmp_path):
    assert main(["telemetry", "trace", str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()
    assert main(["telemetry", "frobnicate", "x"]) == 2
    assert "telemetry trace" in capsys.readouterr().out


def test_diff_identical_store_entries_is_bitwise_equal(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    base = ["run", "scenario", "carbon-buffer"] + FAST_SCENARIO_ARGS
    # Two entries with identical physics: the description changes the spec
    # hash but feeds nothing into the simulation.
    assert main(base + ["--store", store_dir]) == 0
    assert main(base + ["--set", "description=twin", "--store", store_dir]) == 0
    capsys.readouterr()
    from repro.store import ExperimentStore

    key_a, key_b = sorted(ExperimentStore(store_dir).keys())
    assert main(["diff", key_a[:12], key_b[:12], "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "runs are identical on every compared field" in out
    assert "fleet_cci_g_per_request" in out


def test_diff_flags_differing_runs_and_bad_targets(capsys, tmp_path):
    store_dir = str(tmp_path / "es")
    base = ["run", "scenario", "carbon-buffer"] + FAST_SCENARIO_ARGS
    assert main(base + ["--store", store_dir]) == 0
    assert main(base + ["--set", "seed=9", "--store", store_dir]) == 0
    capsys.readouterr()
    from repro.store import ExperimentStore

    key_a, key_b = ExperimentStore(store_dir).keys()[:2]
    assert main(["diff", key_a[:12], key_b[:12], "--store", store_dir]) == 1
    assert "differ" in capsys.readouterr().out
    assert main(["diff", "nope1", "nope2", "--store", store_dir]) == 2
    assert "diff error" in capsys.readouterr().out


def test_run_audit_passes_and_prints_report(capsys, tmp_path):
    args = ["run", "scenario", "carbon-buffer"] + FAST_SCENARIO_ARGS
    assert main(args + ["--audit"]) == 0
    out = capsys.readouterr().out
    assert "audit: all 16 invariant checks passed (0 violations)" in out

    # A store-cached result was never simulated, so there is nothing to audit.
    store_dir = str(tmp_path / "es")
    assert main(args + ["--audit", "--store", store_dir]) == 0
    capsys.readouterr()
    assert main(args + ["--audit", "--store", store_dir]) == 0
    assert "audit skipped" in capsys.readouterr().out


def test_run_progress_writes_heartbeat_jsonl(capsys, tmp_path):
    import json

    progress_path = str(tmp_path / "progress.jsonl")
    assert (
        main(
            ["run", "scenario", "carbon-buffer"]
            + FAST_SCENARIO_ARGS
            + ["--progress", progress_path]
        )
        == 0
    )
    capsys.readouterr()
    with open(progress_path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert records, "progress file must contain at least the final heartbeat"
    final = records[-1]
    assert final["kind"] == "progress"
    assert final["days_done"] == 2 and final["total_days"] == 2
    assert final["fraction"] == 1.0


def test_progress_and_audit_rejected_for_figure_targets(capsys):
    assert main(["run", "fig1", "--progress"]) == 2
    assert "--progress only applies" in capsys.readouterr().out
    assert main(["run", "fig1", "--audit"]) == 2
    assert "--audit only applies" in capsys.readouterr().out


def test_bench_record_check_log_round_trip(capsys, tmp_path):
    import json

    bench_json = str(tmp_path / "bench.json")
    history = str(tmp_path / "history.jsonl")
    payload = {
        "benchmark": "fleet_scaling",
        "cases": [
            {"case": "greedy-year", "wall_s": 1.0, "device_days_per_s": 1e6}
        ],
    }
    with open(bench_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)

    record_args = ["bench", "record", "--bench-json", bench_json, "--history", history]
    assert main(record_args) == 0
    assert "recorded 1 case(s)" in capsys.readouterr().out
    assert main(record_args) == 0
    capsys.readouterr()

    check_args = ["bench", "check", "--bench-json", bench_json, "--history", history]
    assert main(check_args + ["--case", "greedy-year"]) == 0
    assert "[OK]" in capsys.readouterr().out

    # Inject a >25% regression into the snapshot: the gate fails.
    payload["cases"][0]["wall_s"] = 1.3
    with open(bench_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert main(check_args) == 1
    assert "[REGRESSION]" in capsys.readouterr().out

    assert main(["bench", "log", "--history", history]) == 0
    log_out = capsys.readouterr().out
    assert "greedy-year" in log_out and "wall (s)" in log_out


def test_bench_errors_are_reported(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["bench", "check", "--bench-json", missing]) == 2
    assert "bench error" in capsys.readouterr().out
    assert main(["bench", "log", "--history", str(tmp_path / "none.jsonl")]) == 0
    assert "no benchmark history" in capsys.readouterr().out
