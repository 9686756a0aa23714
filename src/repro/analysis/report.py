"""Plain-text rendering of tables and figure summaries.

The benchmark harness and the examples use these helpers to print the rows
and series the paper reports, so a terminal run of the harness reads like the
paper's evaluation section.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.tables import (
    Table1Row,
    Table2Row,
    Table3Data,
    table1_geekbench,
    table2_power,
    table3_components,
    table4_datacenter,
)
from repro.core.lifetime import LifetimeSweep
from repro.ioutils import format_table


def render_table1(rows: Sequence[Table1Row] = None) -> str:
    """Render Table 1 (Geekbench scores and equivalence counts)."""
    rows = rows if rows is not None else table1_geekbench()
    headers = ["Device", "Year"]
    benchmark_names = list(rows[0].scores)
    for name in benchmark_names:
        headers.extend([f"{name} single", f"{name} multi", f"{name} N"])
    table_rows = []
    for row in rows:
        cells = [row.device, row.year]
        for name in benchmark_names:
            single, multi = row.scores[name]
            cells.extend([f"{single:g}", f"{multi:g}", row.devices_needed[name]])
        table_rows.append(cells)
    return format_table(headers, table_rows)


def render_table2(rows: Sequence[Table2Row] = None) -> str:
    """Render Table 2 (power versus CPU load)."""
    rows = rows if rows is not None else table2_power()
    headers = ["Device", "P100 (W)", "P50 (W)", "P10 (W)", "Pidle (W)", "Pavg (W)"]
    table_rows = [
        [r.device, f"{r.p_100:g}", f"{r.p_50:g}", f"{r.p_10:g}", f"{r.p_idle:g}", f"{r.p_avg:.2f}"]
        for r in rows
    ]
    return format_table(headers, table_rows)


def render_table3(data: Table3Data = None) -> str:
    """Render Table 3 (component carbon breakdown and reuse factor)."""
    data = data if data is not None else table3_components()
    headers = ["Component", "Fraction", "kg CO2e"]
    rows = [
        [name, f"{info['fraction']:.0%}", f"{info['kg_co2e']:.1f}"]
        for name, info in data.components.items()
    ]
    table = format_table(headers, rows)
    return (
        f"{data.device} component embodied carbon\n{table}\n"
        f"Cloudlet reuse factor: {data.cloudlet_reuse_factor:.2f}"
    )


def render_table4(projections: Mapping[str, Mapping[str, float]] = None) -> str:
    """Render Table 4 (datacenter-scale CCI projections and PUE)."""
    projections = projections if projections is not None else table4_datacenter()
    first = next(iter(projections.values()))
    metric_names = [name for name in first if name != "PUE"]
    headers = ["Design", "PUE"] + [f"{name} (mgCO2e/unit)" for name in metric_names]
    rows = []
    for design, values in projections.items():
        rows.append(
            [design, f"{values['PUE']:.2f}"]
            + [f"{values[name]:.3g}" for name in metric_names]
        )
    return format_table(headers, rows)


def render_lifetime_sweep(sweep: LifetimeSweep, months: Sequence[float] = (12, 36, 60)) -> str:
    """Summarise a lifetime sweep at a few representative lifetimes."""
    headers = ["System"] + [f"{int(m)} mo" for m in months]
    rows = []
    for label in sweep.labels():
        rows.append([label] + [f"{sweep.at(label, m):.4g}" for m in months])
    return f"(units: {sweep.metric_unit})\n" + format_table(headers, rows)


def render_fleet_report(report) -> str:
    """Render a :class:`~repro.fleet.reporting.FleetReport` as a per-site table.

    One row per site plus a fleet-total row, covering served load, carbon
    split, grid intensity, availability, and churn counters.
    """
    headers = [
        "Site",
        "Served (Mreq)",
        "Op. carbon (kg)",
        "Repl. carbon (kg)",
        "Mean CI (g/kWh)",
        "Avail.",
        "Failures",
        "Batt. swaps",
    ]
    rows = []
    for site in report.site_summaries():
        rows.append(
            [
                site.name,
                f"{site.served_requests / 1e6:.1f}",
                f"{site.operational_carbon_g / 1e3:.2f}",
                f"{site.replacement_carbon_g / 1e3:.2f}",
                f"{site.mean_intensity_g_per_kwh:.0f}",
                f"{site.availability:.1%}",
                str(site.failures),
                str(site.battery_swaps),
            ]
        )
    rows.append(
        [
            f"FLEET ({report.policy_name})",
            f"{report.total_served_requests / 1e6:.1f}",
            f"{report.total_operational_carbon_g / 1e3:.2f}",
            f"{report.total_replacement_carbon_g / 1e3:.2f}",
            "-",
            f"{report.availability():.1%}",
            str(int(report.failures.sum())),
            str(int(report.battery_swaps.sum())),
        ]
    )
    cci = report.fleet_cci_g_per_request()
    footer = (
        f"fleet CCI: {cci:.3e} gCO2e/request, "
        f"served fraction: {report.served_fraction():.1%}"
    )
    rendered = format_table(headers, rows) + "\n" + footer
    cohort_table = _render_cohort_table(report)
    if cohort_table:
        rendered += "\n\n" + cohort_table
    return rendered


def _render_cohort_table(report) -> str:
    """Per-device-type rows for mixed sites (empty when every site is one type)."""
    if report.n_cohorts == len(report.site_names):
        return ""  # one cohort per site: the site table already says it all
    headers = [
        "Cohort",
        "Served (Mreq)",
        "Device kWh",
        "Batt. kWh",
        "Avail.",
        "Failures",
        "Batt. swaps",
    ]
    rows = []
    for cohort in report.cohort_summaries():
        rows.append(
            [
                cohort.label,
                f"{cohort.served_requests / 1e6:.1f}",
                f"{cohort.device_energy_kwh:.1f}",
                f"{cohort.battery_discharge_kwh:.1f}",
                f"{cohort.availability:.1%}",
                str(cohort.failures),
                str(cohort.battery_swaps),
            ]
        )
    return format_table(headers, rows)


def render_scenario_result(result) -> str:
    """Render a :class:`~repro.scenarios.runner.ScenarioResult` for the CLI.

    The fleet table plus the scenario-level extras the runner unifies:
    dollars per request (with the churn-cost breakdown per site), the DES
    latency probe, and the smart-charging headroom estimate.
    """
    spec = result.spec
    lines = [
        f"scenario: {spec.name} ({spec.duration_days} days, seed {spec.seed}, "
        f"policy {spec.routing.policy})",
    ]
    if spec.description:
        lines.append(f"  {spec.description}")
    lines.append("")
    lines.append(render_fleet_report(result.report))
    if result.site_costs:
        lines.append("")
        headers = ["Site", "Purchase ($)", "Energy ($)", "Churn ($)", "Total ($)"]
        rows = []
        for name, cost in result.site_costs.items():
            rows.append(
                [
                    name,
                    f"{cost.purchase_usd + cost.peripherals_usd:,.0f}",
                    f"{cost.energy_usd:,.0f}",
                    f"{cost.maintenance_usd:,.0f}",
                    f"{cost.total_usd:,.0f}",
                ]
            )
        lines.append(format_table(headers, rows))
        lines.append(
            f"cost: ${result.total_cost_usd:,.0f} total, "
            f"{result.usd_per_request:.3e} $/request "
            f"(vs {result.cci_g_per_request:.3e} gCO2e/request)"
        )
    if result.latency is not None:
        lines.append(
            f"latency probe: median {result.latency.median_ms:.1f} ms, "
            f"p99 {result.latency.p99_ms:.1f} ms, "
            f"completion {result.latency.completion_ratio:.1%}"
        )
    if result.charging_mode == "dispatch":
        report = result.report
        lines.append(
            "energy dispatch: "
            f"{report.total_battery_discharge_kwh:.2f} kWh served from battery, "
            f"{report.total_charge_kwh:.2f} kWh charged, "
            f"{report.carbon_avoided_g() / 1e3:.3f} kg carbon avoided"
        )
        if result.forecast_model != "none":
            lines.append(
                f"forecast dispatch ({result.forecast_model}): "
                f"hindsight-optimal {report.hindsight_avoided_g / 1e3:.3f} kg "
                f"avoided, regret {report.forecast_regret_g() / 1e3:.3f} kg"
            )
        for site, savings in result.charging_savings.items():
            lines.append(
                f"smart charging at {site}: {savings:.1%} realised operational savings"
            )
    else:
        for site, savings in result.charging_savings.items():
            lines.append(
                f"smart charging at {site}: ~{savings:.1%} estimated operational savings"
            )
    return "\n".join(lines)


def render_store_summary(entries) -> str:
    """Render experiment-store entries as a one-row-per-experiment table.

    ``entries`` is an iterable of
    :class:`~repro.store.StoredExperiment` in listing order; the table
    shows each entry's key prefix, scenario, provenance, and headline
    metrics, so ``python -m repro store ls`` reads like a lab notebook.
    """
    headers = [
        "Key",
        "Scenario",
        "Seed",
        "Days",
        "CCI (g/req)",
        "$/request",
        "Op. carbon (kg)",
        "Version",
    ]
    rows = []
    for entry in entries:
        result = entry.result
        rows.append(
            [
                entry.key[:12],
                entry.scenario,
                str(entry.seed),
                str(entry.duration_days),
                f"{result.cci_g_per_request:.3e}",
                f"{result.usd_per_request:.3e}",
                f"{result.report.total_operational_carbon_g / 1e3:.2f}",
                entry.repro_version,
            ]
        )
    if not rows:
        return "experiment store is empty"
    return format_table(headers, rows) + f"\n{len(rows)} stored experiment(s)"


def render_sweep_result(sweep) -> str:
    """Render a :class:`~repro.scenarios.sweep.SweepResult` for the CLI.

    One row per grid cell — the swept override values plus CCI, dollars per
    request, and operational carbon — with the lowest-CCI cell called out.
    """
    headers, rows = sweep.table()
    best = sweep.best_cell()
    best_axes = ", ".join(f"{key}={value}" for key, value in best.overrides)
    lines = [
        f"sweep of {sweep.base.name!r} over {len(sweep.cells)} cells "
        f"({' x '.join(sweep.axis_names)})",
        "",
        format_table(headers, rows),
        "",
        f"lowest CCI: {best.cci_g_per_request:.3e} g/request at {best_axes}",
    ]
    return "\n".join(lines)
