"""The observatory must observe, never perturb — across every preset.

Same contract ``test_telemetry_scenarios.py`` locks for plain telemetry,
extended to the observatory's two run-mode switches: a progress-on run
(live heartbeats fed from span completions) and an audit-on run (invariant
checks over the finished matrices) must both be bitwise-identical to an
uninstrumented run, the audit must pass with zero violations on every
bundled preset, and flipping ``execution.audit`` must not move the spec's
content hash (execution knobs are excluded from identity).
"""

import dataclasses
import io

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.scenarios.sweep import sweep_scenario
from repro.telemetry.observatory import ProgressReporter, ProgressTelemetry

#: Short-horizon overrides so every preset runs in a fraction of a second.
FAST = {"duration_days": 2, "routing.latency_probe_s": 0.0}


def _fast_spec(name, keep_probe=False):
    overrides = dict(FAST)
    if keep_probe:
        del overrides["routing.latency_probe_s"]
    return get_scenario(name).with_overrides(overrides)


def _silent_reporter():
    return ProgressReporter(stream=io.StringIO(), interval_s=0.0)


def _assert_reports_identical(first, second):
    for field in dataclasses.fields(first):
        a = getattr(first, field.name)
        b = getattr(second, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"report field {field.name} differs"
        else:
            assert a == b, f"report field {field.name} differs: {a!r} != {b!r}"


@pytest.mark.parametrize("name", scenario_names())
def test_progress_and_audit_are_bitwise_identical_to_plain(name):
    spec = _fast_spec(name, keep_probe=(name == "two-site-asymmetric"))
    plain = ScenarioRunner(spec).run()

    reporter = _silent_reporter()
    with_progress = ScenarioRunner(
        spec, telemetry=ProgressTelemetry(reporter)
    ).run()
    _assert_reports_identical(plain.report, with_progress.report)
    assert plain.cci_g_per_request == with_progress.cci_g_per_request
    assert plain.usd_per_request == with_progress.usd_per_request
    assert reporter.days_done == spec.duration_days
    assert reporter.n_devices and reporter.n_devices > 0

    audited_spec = spec.with_overrides({"execution.audit": True})
    audit_runner = ScenarioRunner(audited_spec)
    audited = audit_runner.run()
    _assert_reports_identical(plain.report, audited.report)
    assert plain.cci_g_per_request == audited.cci_g_per_request
    assert plain.summary_dict() == audited.summary_dict()
    # Zero violations on every bundled preset.
    assert audit_runner.last_audit is not None
    assert audit_runner.last_audit.ok, audit_runner.last_audit.render()
    assert audit_runner.last_audit.checks >= 11


def test_audit_flag_does_not_move_the_spec_hash():
    spec = _fast_spec("carbon-buffer")
    audited = spec.with_overrides({"execution.audit": True})
    assert audited.execution.audit and not spec.execution.audit
    assert audited.sha256() == spec.sha256()


def test_plain_run_has_no_audit_report():
    runner = ScenarioRunner(_fast_spec("carbon-buffer"))
    runner.run()
    assert runner.last_audit is None


def test_audit_counters_and_span_require_telemetry():
    from repro.telemetry import Telemetry

    spec = _fast_spec("carbon-buffer").with_overrides({"execution.audit": True})
    tele = Telemetry()
    ScenarioRunner(spec, telemetry=tele).run()
    # Dispatch preset: all 13 energy/alloc checks + 3 churn-conservation.
    assert tele.counters["audit.checks"] == 16
    assert tele.counters["audit.violations"] == 0
    assert tele.events == []  # no violations => no events
    assert "scenario/main_run/audit" in {span.path for span in tele.spans}


def test_sweep_progress_counts_cells_and_changes_nothing():
    spec = _fast_spec("paper-baseline")
    axes = {"demand.fraction_of_capacity": [0.3, 0.6, 0.3]}
    plain = sweep_scenario(spec, axes)
    reporter = _silent_reporter()
    tracked = sweep_scenario(spec, axes, progress=reporter)
    # 3 grid cells, 2 unique simulations: progress counts completed unique
    # cells, results are identical cell for cell.
    assert reporter.total_cells == 2
    assert reporter.cells_done == 2
    for ours, theirs in zip(plain.cells, tracked.cells):
        assert ours.cci_g_per_request == theirs.cci_g_per_request
        assert ours.usd_per_request == theirs.usd_per_request


def test_sweep_progress_ticks_store_hits(tmp_path):
    from repro.store import ExperimentStore

    spec = _fast_spec("forecast-buffer").with_overrides(
        {"forecast.model": "persistence"}
    )
    axes = {"forecast.noise_sigma": [0.1, 0.3]}
    store = ExperimentStore(str(tmp_path / "es"))
    first = _silent_reporter()
    sweep_scenario(spec, axes, store=store, progress=first)
    # Two forecast cells; each prices its hindsight baseline inside its own
    # run, so the total is the unique-cell count.
    assert first.total_cells == 2
    assert first.cells_done == 2

    second = _silent_reporter()
    rerun = sweep_scenario(spec, axes, store=store, progress=second)
    # Every grid cell is a store hit now and ticks without a simulation.
    assert second.total_cells == 2
    assert second.cells_done == 2
    assert len(rerun.cells) == 2


class TestBucketSamplerObservatory:
    """The bucketed churn engine under the audit and telemetry lenses."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_bucket_runs_pass_the_audit_on_every_preset(self, name):
        spec = _fast_spec(name).with_overrides(
            {"churn.sampler": "bucket", "execution.audit": True}
        )
        runner = ScenarioRunner(spec)
        runner.run()
        assert runner.last_audit is not None
        assert runner.last_audit.ok, runner.last_audit.render()

    def test_churn_gauges_name_the_engine(self):
        from repro.telemetry import Telemetry

        spec = _fast_spec("carbon-buffer")
        tele = Telemetry()
        ScenarioRunner(spec, telemetry=tele).run()
        assert tele.gauges["churn.sampler"] == "device"
        assert tele.gauges["churn.buckets_peak"] >= 1

        bucket_spec = spec.with_overrides({"churn.sampler": "bucket"})
        bucket_tele = Telemetry()
        ScenarioRunner(bucket_spec, telemetry=bucket_tele).run()
        assert bucket_tele.gauges["churn.sampler"] == "bucket"
        assert bucket_tele.gauges["churn.buckets_peak"] >= 1

    def test_string_gauges_render_in_profile(self):
        from repro.telemetry import Telemetry, build_manifest
        from repro.telemetry.profile import render_profile

        spec = _fast_spec("carbon-buffer").with_overrides(
            {"churn.sampler": "bucket"}
        )
        tele = Telemetry()
        ScenarioRunner(spec, telemetry=tele).run()
        manifest = build_manifest(tele, name="carbon-buffer")
        text = render_profile(manifest)
        assert "churn.sampler" in text and "bucket" in text
