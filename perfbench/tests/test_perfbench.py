"""Self-tests of the benchmark: metric names, checks, seeds, tracing."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import run  # noqa: E402
from repro.telemetry import NULL_TELEMETRY, Telemetry  # noqa: E402
from tracing import span_records, traced_regional_trace  # noqa: E402
from workloads import REFERENCE, WORKLOADS, CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def _last_json_line(trace: int, spans_dir: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(PERFBENCH, "run.py"),
            "--workload", "fleet-1m",
            "--seconds", "0",
            "--trace", str(trace),
            "--spans-dir", spans_dir,
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(tmp_path, trace, section):
    outcome = _last_json_line(trace, str(tmp_path))
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    printed = {name: entry["unit"] for name, entry in outcome["metrics"].items()}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in printed)
    assert printed == declared
    if trace:
        with open(tmp_path / "spans-fleet-1m-seed0.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        assert {"call", "regional_trace", "dispatch_day", "store_put"} <= {
            span["name"] for span in spans
        }
        assert all(span["workload"] == "fleet-1m" for span in spans)


def test_perturbed_cci_fails_the_check_and_counts_as_failed():
    workload = WORKLOADS["fleet-1m"]
    outputs = dict(REFERENCE["fleet-1m"])
    workload.check(outputs, seed=workload.recorded_seed)
    outputs["cci_g_per_request"] *= 1.0 + 1e-12
    with pytest.raises(CheckFailed):
        workload.check(outputs, seed=workload.recorded_seed)

    broken = replace(workload, call=lambda inputs, tele: None, outputs=lambda _: outputs)
    outcome = run.run_untraced(broken, workload.recorded_seed, seconds=0)
    assert outcome["attempted"] == run.MIN_CALLS
    assert outcome["failed"] == outcome["attempted"]
    assert not outcome["correct"]


def test_another_seed_changes_the_inputs():
    for name in ("scenario-probe", "fleet-1m", "sites-64-forecast"):
        build = WORKLOADS[name].build
        assert build(0).sha256 == build(0).sha256
        assert build(0).sha256 != build(1).sha256
    build = WORKLOADS["deathstarbench-cloudlet"].build
    assert build(7).seed != build(8).seed


def test_traced_and_untraced_calls_give_identical_outputs():
    workload = WORKLOADS["fleet-1m"]
    inputs = workload.build(workload.recorded_seed)
    plain = workload.outputs(workload.call(inputs, NULL_TELEMETRY))
    tele = Telemetry()
    samples = []
    with traced_regional_trace(tele, samples), tele.span("call"):
        traced = workload.outputs(workload.call(inputs, tele))
    assert traced == plain == REFERENCE["fleet-1m"]
    assert samples and all(count > 0 for count in samples)


def test_span_records_link_parents_and_subtract_children():
    tele = Telemetry()
    with tele.span("outer"):
        with tele.span("inner"):
            sum(range(10_000))
        with tele.span("inner"):
            pass
    records = span_records(tele, "w")
    outer = next(record for record in records if record["name"] == "outer")
    inners = [record for record in records if record["name"] == "inner"]
    assert outer["parent"] is None
    assert [record["parent"] for record in inners] == [outer["id"]] * 2
    children = sum(record["end_s"] - record["start_s"] for record in inners)
    assert outer["self_s"] == pytest.approx(outer["end_s"] - outer["start_s"] - children)
