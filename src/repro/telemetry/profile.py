"""Render a run manifest as a per-phase profiling breakdown.

The ``python -m repro profile scenario <name>`` CLI target feeds a finished
run's manifest through :func:`render_profile` to answer the first question
of any scaling work: *where does the time go?*  Output is a fixed-width
text table (one row per span path, indented by nesting depth) plus the
counter block, e.g.::

    phase                            calls    total (s)    share
    -------------------------------  -----  -----------  -------
    scenario                             1        0.842   100.0%
      build_sites                        1        0.021     2.5%
      main_run                           1        0.612    72.7%
        allocate_day                    30        0.201    23.9%
    ...

Shares are fractions of the summed top-level span time, so sibling rows
add up and nested rows read as a drill-down of their parent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: The fleet loop's per-day phases: one span call covers one simulated day.
FLEET_DAY_PHASES = frozenset(
    ("allocate_day", "step_population", "site_energy_kwh", "dispatch_day")
)


def _format_table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "  ".join("-" * w for w in widths)
    return "\n".join([line(list(headers)), separator] + [line(row) for row in rows])


def _sorted_phase_rows(phases: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Phase rows in tree order: each path right after its parent prefix.

    Within one parent, children keep their first-completion order — for the
    fleet loop that is exactly the per-day phase order.
    """
    by_path = {row["path"]: row for row in phases}
    ordered: List[Dict[str, object]] = []

    def emit(prefix: str) -> None:
        for row in phases:
            path = row["path"]
            parent, _, _ = path.rpartition("/")
            if parent == prefix and by_path.get(path) is not None:
                by_path[path] = None
                ordered.append(row)
                emit(path)

    emit("")
    # Orphan paths (parent span never closed — should not happen) keep order.
    ordered.extend(row for row in phases if by_path.get(row["path"]) is not None)
    return ordered


def render_profile(manifest: Dict[str, object]) -> str:
    """The profiling report for one run manifest: phases, counters, footprint."""
    lines = [
        f"profile: {manifest.get('name')} "
        f"(repro {manifest.get('repro_version')}, seed {manifest.get('seed')})"
    ]
    if manifest.get("spec_sha256"):
        lines.append(f"spec sha256: {manifest['spec_sha256']}")
    lines.append(f"wall clock: {manifest.get('wall_s', 0.0):.3f} s")
    peak = manifest.get("peak_rss_bytes")
    if peak:
        lines.append(f"peak RSS: {peak / 2**20:.1f} MiB")
    # Shard/cell workers build their manifests in their own process, so the
    # parent's RSS says nothing about a worker's footprint — surface the
    # worst child next to the parent figure.
    child_rss = [
        child["peak_rss_bytes"]
        for child in manifest.get("children", [])
        if isinstance(child.get("peak_rss_bytes"), (int, float))
    ]
    if child_rss:
        lines.append(f"peak RSS (max shard): {max(child_rss) / 2**20:.1f} MiB")
    lines.append("")

    # Per-phase throughput: each call of a fleet-loop phase covers one
    # simulated day across the whole fleet, so device-days per wall second
    # is gauge(fleet.n_devices) x calls / total_s.  Other spans' calls are
    # not days, so their throughput cell stays blank.
    n_devices = manifest.get("gauges", {}).get("fleet.n_devices")

    rows = []
    for row in _sorted_phase_rows(list(manifest.get("phases", []))):
        depth = row["path"].count("/")
        name = row["path"].rsplit("/", 1)[-1]
        calls = row["calls"]
        total_s = row["total_s"]
        if name in FLEET_DAY_PHASES and n_devices and calls and total_s > 0:
            throughput = f"{n_devices * calls / total_s:,.0f}"
        else:
            throughput = "-"
        rows.append(
            [
                "  " * depth + name,
                str(calls),
                f"{total_s:.4f}",
                f"{row['fraction']:.1%}",
                throughput,
            ]
        )
    if rows:
        lines.append(
            _format_table(
                ["phase", "calls", "total (s)", "share", "device-days/s"], rows
            )
        )
    else:
        lines.append("(no spans recorded)")

    counters = manifest.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {rendered}")
    gauges = manifest.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            value = gauges[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {rendered}")

    children = manifest.get("children", [])
    if children:
        lines.append("")
        lines.append(f"children: {len(children)} cell manifest(s)")
        for child in children:
            rss = child.get("peak_rss_bytes")
            rss_note = (
                f", peak RSS {rss / 2**20:.1f} MiB"
                if isinstance(rss, (int, float))
                else ""
            )
            lines.append(
                f"  {child.get('name')}: {child.get('wall_s', 0.0):.3f} s, "
                f"{len(child.get('phases', []))} phases{rss_note}"
            )
    return "\n".join(lines)
