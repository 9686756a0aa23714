"""The repository benchmark: run one workload, or all of them, and check it.

From the repository root::

    python3 perfbench/run.py --workload fleet-1m --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` calls the workload with tracing off for ``--seconds`` and
prints the end-to-end metrics: ``setup_s`` (median time of a fresh
interpreter that imports ``repro`` and builds the inputs), ``run_ref_s``
(median time of a call) and ``peak_rss_mb`` (peak resident set through the
first call).  Both times are scaled to the reference host's speed by the
loop in ``calibration.py``.  ``--trace 1``
alternates untraced and traced calls and prints the per-layer table; it
writes the spans of every traced call once, at the end, into ``--spans-dir``.
``--workload all`` runs every workload in both modes.

Load comes from one process and one client: each call starts after the
previous one returned.  Every call's outputs are checked (see
``workloads.py``); a call whose check fails or that raises counts as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Untracked default for everything a run writes (spans, a scratch store).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no program to measure under {ROOT}/src")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.store import ExperimentStore  # noqa: E402
from repro.telemetry import NULL_TELEMETRY, Telemetry  # noqa: E402

from calibration import ReferenceClock  # noqa: E402
from tracing import (  # noqa: E402
    PER_LAYER_UNITS,
    call_seconds,
    layer_metrics,
    span_records,
    traced_regional_trace,
)
from workloads import WORKLOADS, CheckFailed, get_workload  # noqa: E402

#: Fewest calls a run makes, however short ``--seconds`` is.
MIN_CALLS = 2
#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "run_ref_s": "s", "peak_rss_mb": "MB"}


def time_setup(name: str, seed: int) -> float:
    """Wall seconds of one fresh interpreter building the workload's inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "build_inputs.py"), name, str(seed)],
        check=True,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_round_trip(store: ExperimentStore, result, tele) -> int:
    """Put ``result``, read it back, require an identical ``to_dict()``.

    Returns the entry's size in bytes.
    """
    with tele.span("store_put"):
        key = store.put(result)
    with tele.span("store_get"):
        entry = store.get_entry(key)
    if json.dumps(entry.result.to_dict(), sort_keys=True) != json.dumps(
        result.to_dict(), sort_keys=True
    ):
        raise CheckFailed("store round trip changed the result")
    return os.path.getsize(store.path_for(key))


class Run:
    """Bookkeeping for one measured run: call counts, failures, outputs."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.first_outputs = None
        self._start = time.perf_counter()

    def more(self) -> bool:
        return (
            self.attempted < MIN_CALLS
            or time.perf_counter() - self._start < self.seconds
        )

    def checked(self, result) -> dict:
        """Check one call's outputs; every call must also repeat the first."""
        outputs = self.workload.outputs(result)
        self.workload.check(outputs, self.seed)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            raise CheckFailed("outputs differ between calls with the same inputs")
        return outputs

    def attempt(self, body) -> None:
        """Run one checked call; a failed check or any error counts as failed."""
        self.attempted += 1
        try:
            body()
        except CheckFailed as error:
            self.failed += 1
            print(f"check failed: {error}", file=sys.stderr)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            traceback.print_exc()

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }


def run_untraced(workload, seed: int, seconds: float) -> dict:
    # Every time is scaled to the reference host's speed and the median
    # taken: other tenants of a shared host change its speed within a call's
    # length and for minutes at a time (see README.md).
    clock = ReferenceClock()
    setup = [clock.scale(time_setup(workload.name, seed)) for _ in range(SETUP_REPEATS)]
    inputs = workload.build(seed)
    run = Run(workload, seed, seconds)
    run_s = []
    first_call_rss = []

    def body():
        start = time.perf_counter()
        result = workload.call(inputs, NULL_TELEMETRY)
        run_s.append(clock.scale(time.perf_counter() - start))
        if not first_call_rss:
            first_call_rss.append(peak_rss_mb())
        run.checked(result)

    while run.more():
        run.attempt(body)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_ref_s": statistics.median(run_s) if run_s else float("nan"),
        # What one run of the workload needs; later calls only add
        # allocator fragmentation and garbage not yet collected.
        "peak_rss_mb": first_call_rss[0] if first_call_rss else float("nan"),
    }
    return run.result(metrics, END_TO_END_UNITS)


def run_traced(workload, seed: int, seconds: float, spans_out: str) -> dict:
    inputs = workload.build(seed)
    spec = getattr(inputs, "spec", None)
    run = Run(workload, seed, seconds)
    samples_by_metric = {name: [] for name in PER_LAYER_UNITS}
    records = []
    os.makedirs(OUT_DIR, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    store = ExperimentStore(store_root)

    def untraced():
        start = time.perf_counter()
        result = workload.call(inputs, NULL_TELEMETRY)
        return result, time.perf_counter() - start

    def traced():
        tele = Telemetry()
        samples = []
        with traced_regional_trace(tele, samples), tele.span("call"):
            result = workload.call(inputs, tele)
        return result, tele, samples

    def body():
        # Alternate which side goes first so neither always runs warm.
        if run.attempted % 2:
            (plain, plain_s), (result, tele, samples) = untraced(), traced()
        else:
            (result, tele, samples), (plain, plain_s) = traced(), untraced()
        if run.checked(plain) != run.checked(result):
            raise CheckFailed("traced and untraced calls disagree")
        entry_bytes = store_round_trip(store, plain, tele) if workload.stores else 0
        call_records = span_records(tele, workload.name, first_id=len(records))
        metrics = layer_metrics(
            call_records, tele, sum(samples), entry_bytes, result, spec
        )
        metrics["trace.overhead_s"] = call_seconds(call_records) - plain_s
        for name in PER_LAYER_UNITS:
            samples_by_metric[name].append(metrics[name])
        records.extend(call_records)

    try:
        while run.more():
            run.attempt(body)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    os.makedirs(os.path.dirname(os.path.abspath(spans_out)), exist_ok=True)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
        handle.write("\n")
    metrics = {
        name: statistics.median(values) if values else float("nan")
        for name, values in samples_by_metric.items()
    }
    return run.result(metrics, PER_LAYER_UNITS)


def print_table(name: str, seed: int, outcome: dict) -> None:
    ratio = outcome["failed"] / outcome["attempted"]
    print(
        f"== {name} (seed {seed}): {outcome['attempted']} calls, "
        f"{outcome['failed']} failed, failed_ratio {ratio:g}"
    )
    for metric, entry in outcome["metrics"].items():
        print(f"  {metric:<28} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: the recorded one)"
    )
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="how long one run measures"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-dir",
        default=OUT_DIR,
        help="where traced runs write spans-<workload>-seed<n>.json",
    )
    args = parser.parse_args(argv)

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        plan = [(get_workload(args.workload).name, args.trace)]
    for name, trace in plan:
        workload = get_workload(name)
        seed = workload.recorded_seed if args.seed is None else args.seed
        if trace:
            spans_out = os.path.join(args.spans_dir, f"spans-{name}-seed{seed}.json")
            outcome = run_traced(workload, seed, args.seconds, spans_out)
        else:
            outcome = run_untraced(workload, seed, args.seconds)
        print_table(name, seed, outcome)
        print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
