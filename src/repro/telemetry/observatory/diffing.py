"""Field-by-field diffing of two recorded runs.

``python -m repro diff <A> <B>`` promotes the test suite's determinism
audits to a first-class CLI tool: each argument is either a telemetry
JSONL path or a (prefix of a) content hash in the experiment store, and
the output is a delta table over every comparable field — headline
metrics from the stored result, wall clock, per-phase time, counters and
gauges from the manifest — with absolute and relative deltas and a
bitwise-equal marker per row.

"Bitwise-equal" is literal: two floats are marked ``=`` only when they
compare equal exactly (no tolerance), which is precisely the property the
repo's determinism guarantees promise for identical-seed runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ioutils import format_table
from repro.telemetry.sink import read_jsonl


class DiffError(ValueError):
    """A diff target could not be resolved or loaded."""


@dataclass(frozen=True)
class DiffField:
    """One compared field: its section, name, and both sides' values."""

    section: str
    field: str
    a: object
    b: object

    @property
    def equal(self) -> bool:
        """Exact (bitwise, for floats) equality — no tolerance."""
        return type(self.a) is type(self.b) and self.a == self.b

    @property
    def numeric(self) -> bool:
        return all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (self.a, self.b)
        )

    @property
    def delta(self) -> Optional[float]:
        if not self.numeric:
            return None
        return self.b - self.a

    @property
    def rel_delta(self) -> Optional[float]:
        if not self.numeric or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)


@dataclass(frozen=True)
class RunDiff:
    """The full comparison of two runs."""

    label_a: str
    label_b: str
    fields: Tuple[DiffField, ...]

    @property
    def differing(self) -> Tuple[DiffField, ...]:
        return tuple(field for field in self.fields if not field.equal)

    @property
    def all_equal(self) -> bool:
        return not self.differing


@dataclass(frozen=True)
class RunSource:
    """One diff operand, normalised: a label plus its comparable records.

    ``headline`` is the flattened scalar summary of a stored experiment
    (absent for bare telemetry files); ``manifest`` is the telemetry
    manifest (absent for store entries recorded without telemetry).
    """

    label: str
    headline: Optional[Dict[str, object]]
    manifest: Optional[Dict[str, object]]


def _flatten(record: Dict[str, object], prefix: str = "") -> Dict[str, object]:
    flat: Dict[str, object] = {}
    for key in sorted(record):
        value = record[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def load_run_source(target: str, store=None) -> RunSource:
    """Resolve one diff operand: an existing path wins, else a store hash."""
    if os.path.exists(target):
        manifest, _ = read_jsonl(target)
        return RunSource(
            label=os.path.basename(target), headline=None, manifest=manifest
        )
    if store is None:
        raise DiffError(
            f"{target!r} is neither a telemetry JSONL path nor a store hash "
            "(no store available)"
        )
    entry = store.get_entry(store.resolve(target))
    summary = dict(entry.result.summary_dict())
    # The summary's optional telemetry block is observability metadata, not
    # physics: whether a run was instrumented must not make two otherwise
    # identical results diff as unequal.  Counters get their own
    # manifest-sourced section instead.
    summary.pop("telemetry", None)
    return RunSource(
        label=f"{entry.scenario}@{entry.key[:12]}",
        headline=_flatten(summary),
        manifest=entry.manifest,
    )


def _section_fields(
    section: str,
    a: Optional[Dict[str, object]],
    b: Optional[Dict[str, object]],
) -> List[DiffField]:
    if a is None or b is None:
        return []
    fields = []
    for key in sorted(set(a) | set(b)):
        fields.append(DiffField(section, key, a.get(key), b.get(key)))
    return fields


def _phase_seconds(manifest: Dict[str, object]) -> Dict[str, object]:
    return {row["path"]: row["total_s"] for row in manifest.get("phases", [])}


def diff_runs(a: RunSource, b: RunSource) -> RunDiff:
    """Compare two normalised run sources field by field."""
    fields: List[DiffField] = []
    fields.extend(_section_fields("headline", a.headline, b.headline))
    if a.manifest is not None and b.manifest is not None:
        fields.append(
            DiffField(
                "wall clock",
                "wall_s",
                a.manifest.get("wall_s"),
                b.manifest.get("wall_s"),
            )
        )
        fields.extend(
            _section_fields(
                "phase seconds",
                _phase_seconds(a.manifest),
                _phase_seconds(b.manifest),
            )
        )
        fields.extend(
            _section_fields(
                "counters",
                a.manifest.get("counters", {}),
                b.manifest.get("counters", {}),
            )
        )
        fields.extend(
            _section_fields(
                "gauges",
                a.manifest.get("gauges", {}),
                b.manifest.get("gauges", {}),
            )
        )
    if not fields:
        raise DiffError(
            f"nothing comparable between {a.label} and {b.label} "
            "(no shared headline metrics or manifests)"
        )
    return RunDiff(label_a=a.label, label_b=b.label, fields=tuple(fields))


def _render_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_diff(diff: RunDiff) -> str:
    """The delta table: field, both values, Δ, Δ%, bitwise-equal marker."""
    lines = [f"run diff: A = {diff.label_a}  vs  B = {diff.label_b}", ""]
    sections: Dict[str, List[DiffField]] = {}
    for field in diff.fields:
        sections.setdefault(field.section, []).append(field)
    for section, fields in sections.items():
        rows = []
        for field in fields:
            delta = field.delta
            rel = field.rel_delta
            rows.append(
                [
                    field.field,
                    _render_value(field.a),
                    _render_value(field.b),
                    f"{delta:+.6g}" if delta else "-",
                    f"{rel:+.4%}" if rel else "-",
                    "=" if field.equal else "≠",
                ]
            )
        lines.append(f"{section}:")
        lines.append(
            format_table(["field", "A", "B", "Δ", "Δ%", "eq"], rows)
        )
        lines.append("")
    equal = len(diff.fields) - len(diff.differing)
    if diff.all_equal:
        lines.append(
            f"bitwise-equal: {equal}/{len(diff.fields)} fields — "
            "runs are identical on every compared field"
        )
    else:
        lines.append(
            f"bitwise-equal: {equal}/{len(diff.fields)} fields, "
            f"{len(diff.differing)} differ"
        )
    return "\n".join(lines)
