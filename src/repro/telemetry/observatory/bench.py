"""Benchmark history: an append-only trajectory of recorded bench runs.

``BENCH_fleet_scaling.json`` is a *snapshot* — the benchmark suite
rewrites it wholesale every run, under the untracked ``.bench_out/``
directory, so a single file can only ever hold one state.  ``BENCH_history.jsonl`` is the trajectory:
``python -m repro bench record`` appends one record per benchmark case
(case name, wall clock, throughput, git SHA, timestamp) after each
recorded run, and ``bench check`` compares a fresh bench JSON against a
*rolling baseline* — the median wall clock of the last ``window``
history records for that case — so one anomalously fast (or slow)
recorded run cannot silently move the regression gate.

``bench log`` renders the trajectory as a table for eyeballing trends.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ioutils import format_table

#: Default locations, relative to the repo root / current directory.
BENCH_JSON_DEFAULT = ".bench_out/BENCH_fleet_scaling.json"
HISTORY_DEFAULT = "BENCH_history.jsonl"

#: ``bench check`` defaults: >25% above the rolling median fails, and the
#: baseline is the median of the last 5 recorded runs per case.
DEFAULT_THRESHOLD = 0.25
DEFAULT_WINDOW = 5


class BenchHistoryError(ValueError):
    """A bench payload or history file is unusable."""


def git_sha(cwd: Optional[str] = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_bench_json(path: str) -> Dict[str, object]:
    """Load a benchmark snapshot (``BENCH_fleet_scaling.json`` format)."""
    if not os.path.exists(path):
        raise BenchHistoryError(
            f"bench JSON {path!r} not found — run the benchmark suite first"
        )
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(
        payload.get("cases"), list
    ):
        raise BenchHistoryError(f"{path!r} is not a bench snapshot (no cases)")
    return payload


def bench_records(
    payload: Dict[str, object],
    sha: Optional[str] = None,
    recorded_at: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One history record per case in a bench snapshot.

    Besides the wall clock, a record keeps every throughput (``*_per_s``
    field) its case carries, such as a probe case's
    ``probe_requests_per_s``: the layer's own unit of work.
    """
    sha = sha if sha is not None else git_sha()
    recorded_at = recorded_at if recorded_at is not None else utc_timestamp()
    records = []
    for case in payload["cases"]:
        records.append(
            {
                "kind": "bench",
                "benchmark": payload.get("benchmark"),
                "case": case["case"],
                "devices": case.get("devices"),
                "n_days": case.get("n_days"),
                "wall_s": case["wall_s"],
                "device_days_per_s": case.get("device_days_per_s"),
                **{
                    key: value
                    for key, value in case.items()
                    if key.endswith("_per_s")
                },
                "git_sha": sha,
                "recorded_at": recorded_at,
            }
        )
    return records


def read_history(path: str) -> List[Dict[str, object]]:
    """Read the history JSONL (missing file reads as empty history)."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise BenchHistoryError(
                    f"{path}:{line_no}: not valid JSON: {error}"
                ) from None
            if (
                not isinstance(record, dict)
                or record.get("kind") != "bench"
                or not isinstance(record.get("case"), str)
                or not isinstance(record.get("wall_s"), (int, float))
            ):
                raise BenchHistoryError(
                    f"{path}:{line_no}: not a bench history record: {line!r}"
                )
            records.append(record)
    return records


def append_history(path: str, records: Sequence[Dict[str, object]]) -> None:
    """Append records to the history file (plain append — it is a log)."""
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def rolling_baseline(
    history: Sequence[Dict[str, object]],
    case: str,
    window: int = DEFAULT_WINDOW,
) -> Optional[Tuple[float, int]]:
    """Median wall clock of the last ``window`` records for ``case``.

    Returns ``(median_wall_s, n_records_used)`` or ``None`` with no history.
    """
    walls = [r["wall_s"] for r in history if r["case"] == case]
    if not walls:
        return None
    recent = walls[-window:]
    return statistics.median(recent), len(recent)


def check_bench(
    payload: Dict[str, object],
    history: Sequence[Dict[str, object]],
    cases: Optional[Sequence[str]] = None,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> Tuple[bool, List[str]]:
    """Gate a fresh bench snapshot against the rolling history baseline.

    With ``cases`` given, every named case must exist in both the snapshot
    and the history; by default, every snapshot case that has history is
    checked (cases without history are noted, not failed — a brand-new
    case has no baseline to regress against).
    """
    by_case = {case["case"]: case for case in payload["cases"]}
    lines: List[str] = []
    ok = True
    if cases:
        for name in cases:
            if name not in by_case:
                raise BenchHistoryError(
                    f"case {name!r} missing from the bench snapshot"
                )
        selected = list(cases)
    else:
        selected = list(by_case)
    for name in selected:
        baseline = rolling_baseline(history, name, window=window)
        if baseline is None:
            if cases:
                ok = False
                lines.append(f"{name}: REGRESSION-GATE ERROR — no history")
            else:
                lines.append(f"{name}: no history yet (skipped)")
            continue
        median, used = baseline
        current = by_case[name]["wall_s"]
        limit = median * (1.0 + threshold)
        passed = current <= limit
        ok = ok and passed
        lines.append(
            f"{name}: baseline {median:.4f}s (median of last {used}), "
            f"current {current:.4f}s, limit {limit:.4f}s "
            f"[{'OK' if passed else 'REGRESSION'}]"
        )
    return ok, lines


def render_history(
    history: Sequence[Dict[str, object]], case: Optional[str] = None
) -> str:
    """The trajectory table, optionally filtered to one case."""
    rows = []
    for record in history:
        if case is not None and record["case"] != case:
            continue
        throughput = record.get("device_days_per_s")
        rows.append(
            [
                record["case"],
                f"{record['wall_s']:.4f}",
                f"{throughput:,.0f}" if throughput else "-",
                str(record.get("git_sha", "unknown"))[:12],
                str(record.get("recorded_at", "-")),
            ]
        )
    if not rows:
        return "(no bench history)"
    return format_table(
        ["case", "wall (s)", "device-days/s", "git sha", "recorded at"], rows
    )
