"""Command-line entry point: figures, tables, and declarative scenarios.

Usage::

    python -m repro list                 # show everything runnable
    python -m repro run fig5             # regenerate Figure 5 and print it
    python -m repro run table1 fleet     # several targets in one invocation
    python -m repro scenarios            # list registered scenario presets
    python -m repro run scenario two-site-asymmetric \
        --set duration_days=2 --set routing.policy=round-robin
    python -m repro sweep scenario carbon-buffer \
        --set routing.policy=round-robin,greedy-lowest-intensity \
        --set demand.fraction_of_capacity=0.3,0.6
    python -m repro profile scenario carbon-buffer     # per-phase breakdown
    python -m repro run scenario carbon-buffer --telemetry out.jsonl
    python -m repro telemetry validate out.jsonl
    python -m repro sweep scenario carbon-buffer \
        --set demand.fraction_of_capacity=0.3,0.6 --store experiment-store
    python -m repro store ls                           # stored experiments
    python -m repro store show <hash-prefix>
    python -m repro store report scenario carbon-buffer \
        --set demand.fraction_of_capacity=0.3,0.6      # table, zero simulation
    python -m repro telemetry trace out.jsonl -o trace.json
        # Chrome trace_event JSON for Perfetto / chrome://tracing
    python -m repro diff <hash-a> <hash-b>             # field-by-field delta
    python -m repro run scenario carbon-buffer --progress      # live heartbeat
    python -m repro run scenario carbon-buffer --audit # invariant checks
    python -m repro bench check --case greedy-year     # regression gate

Each figure/table target maps to a zero-argument builder that computes the
underlying data and returns the text to print (registry pattern, so adding a
figure is one entry here).  Scenarios are the tunable path: any field of a
registered :class:`~repro.scenarios.ScenarioSpec` can be overridden from the
command line with ``--set dotted.path=value``, and ``sweep`` runs the
cartesian grid of comma-separated ``--set`` value lists, tabulating CCI and
dollars per request per cell.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple


def _fig1() -> str:
    from repro.analysis import fig1_phone_capability

    data = fig1_phone_capability()
    lines = ["Flagship-phone capability vs AWS T4g instances (Figure 1):"]
    for instance in data.t4g_references:
        year = data.first_year_phones_reach(instance.name)
        reached = f"phones reach it in {year}" if year else "not reached yet"
        lines.append(f"  {instance.name}: {reached}")
    return "\n".join(lines)


def _fig2() -> str:
    from repro.analysis import fig2_single_device_cci
    from repro.analysis.report import render_lifetime_sweep

    sweeps = fig2_single_device_cci()
    return "\n\n".join(
        f"Figure 2 ({name}):\n{render_lifetime_sweep(sweep)}"
        for name, sweep in sweeps.items()
    )


def _fig3() -> str:
    from repro.analysis import fig3_thermal

    data = fig3_thermal()
    lines = ["Phones-in-a-box thermal experiment (Figure 3):"]
    for label, result in (
        ("full load", data.full_load),
        ("light-medium", data.light_medium),
    ):
        peak_air = float(result.air_temperature_c.max())
        shutdowns = sum(
            1 for t in result.shutdown_times().values() if t is not None
        )
        lines.append(
            f"  {label}: peak box air {peak_air:.1f} C, "
            f"{shutdowns}/{len(result.phones)} phones shut down"
        )
    return "\n".join(lines)


def _fig4() -> str:
    from repro.analysis import fig4_smart_charging

    data = fig4_smart_charging()
    lines = ["Smart-charging carbon savings (Figure 4):"]
    for device in data.studies:
        lines.append(f"  {device}: median {data.median_savings(device):.1%}")
    return "\n".join(lines)


def _fig5() -> str:
    from repro.analysis import fig5_cluster_cci
    from repro.analysis.report import render_lifetime_sweep

    panels = fig5_cluster_cci()
    return "\n\n".join(
        f"Figure 5 ({benchmark}, {regime}):\n{render_lifetime_sweep(sweep)}"
        for (benchmark, regime), sweep in panels.items()
    )


def _fig6() -> str:
    from repro.analysis import fig6_energy_mix
    from repro.analysis.report import render_lifetime_sweep

    return f"Figure 6 (SGEMM):\n{render_lifetime_sweep(fig6_energy_mix())}"


def _fig7() -> str:
    from repro.analysis import fig7_deathstarbench

    sweeps = fig7_deathstarbench()
    lines = ["DeathStarBench latency-throughput sweeps (Figure 7):"]
    for (workload, cluster), sweep in sweeps.items():
        lines.append(
            f"  {workload} on {cluster}: offered "
            f"{sweep.offered_qps().min():.0f}-{sweep.offered_qps().max():.0f} qps, "
            f"median {sweep.median_ms().min():.1f}-{sweep.median_ms().max():.1f} ms"
        )
    return "\n".join(lines)


def _fig8() -> str:
    from repro.analysis import fig8_cpu_utilization

    data = fig8_cpu_utilization()
    lines = [
        "Per-phone CPU utilisation, social-network cloudlet (Figure 8):",
        f"  read phase at {data.read_qps:.0f} qps, write phase at {data.write_qps:.0f} qps",
        f"  lightly-used phones (<25% in both phases): "
        f"{data.lightly_used_fraction():.0%}",
    ]
    for name in sorted(data.read_utilization):
        lines.append(
            f"  {name}: read {data.read_utilization[name]:.0%}, "
            f"write {data.write_utilization[name]:.0%}"
        )
    return "\n".join(lines)


def _fig9() -> str:
    from repro.analysis import fig9_request_cci
    from repro.analysis.report import render_lifetime_sweep

    data = fig9_request_cci()
    return "\n\n".join(
        f"Figure 9 ({workload}), phones {data.improvement_at(workload):.1f}x better at 36 mo:\n"
        f"{render_lifetime_sweep(sweep)}"
        for workload, sweep in data.sweeps.items()
    )


def _dispatch() -> str:
    from repro.analysis import fig11_carbon_buffer

    data = fig11_carbon_buffer(n_days=14, n_devices_per_site=50)
    lines = [
        "Coupled energy dispatch on the carbon-buffer scenario (Figure 11):",
        f"  greedy alone:      {data.operational_carbon_kg('none'):.3f} kg operational, "
        f"CCI {data.cci('none'):.3e} g/request",
        f"  greedy + dispatch: {data.operational_carbon_kg('dispatch'):.3f} kg operational, "
        f"CCI {data.cci('dispatch'):.3e} g/request",
        f"  carbon avoided by the battery ledger: {data.carbon_avoided_kg():.3f} kg",
    ]
    for site, savings in data.realised_savings().items():
        lines.append(f"  {site}: {savings:.1%} realised smart-charging savings")
    return "\n".join(lines)


def _forecast() -> str:
    from repro.analysis import fig12_forecast_regret

    data = fig12_forecast_regret(n_days=14, n_devices_per_site=50)
    lines = [
        "Forecast lookahead dispatch and regret (Figure 12):",
        f"  prev-day heuristic:   {data.heuristic_avoided_kg():.3f} kg avoided "
        "(no forecast)",
    ]
    for sigma in data.sigmas():
        label = "oracle (sigma=0)" if sigma == 0 else f"noisy sigma={sigma:g}"
        lines.append(
            f"  {label:<21} {data.carbon_avoided_kg(sigma):.3f} kg avoided, "
            f"regret {data.regret_kg(sigma):.3f} kg"
        )
    lines.append(
        f"  persistence:          {data.persistence_avoided_kg():.3f} kg avoided, "
        f"regret {data.persistence_regret_kg():.3f} kg"
    )
    return "\n".join(lines)


def _fleet() -> str:
    from repro.analysis import fig10_fleet_orchestration, render_fleet_report

    data = fig10_fleet_orchestration(n_devices_per_site=200, n_days=90)
    blocks = [
        f"{policy}:\n{render_fleet_report(data.reports[policy])}"
        for policy in data.policies()
    ]
    blocks.append(
        "greedy-lowest-intensity saves "
        f"{data.savings_vs('greedy-lowest-intensity'):.1%} operational carbon "
        "vs round-robin"
    )
    return "\n\n".join(blocks)


def _table(renderer_name: str) -> Callable[[], str]:
    def build() -> str:
        from repro.analysis import report as report_module

        return getattr(report_module, renderer_name)()

    return build


#: Target name -> (description, builder returning printable text).
REGISTRY: Dict[str, Tuple[str, Callable[[], str]]] = {
    "fig1": ("smartphone capability vs cloud instances", _fig1),
    "fig2": ("single-device CCI lifetime curves", _fig2),
    "fig3": ("phones-in-a-box thermal experiment", _fig3),
    "fig4": ("smart-charging savings distribution", _fig4),
    "fig5": ("cluster-level CCI for the five comparison systems", _fig5),
    "fig6": ("CCI under California / solar / zero-carbon mixes", _fig6),
    "fig7": ("DeathStarBench latency-throughput sweeps", _fig7),
    "fig8": ("per-phone CPU utilisation in the serving cloudlet", _fig8),
    "fig9": ("carbon per served request vs EC2 baseline", _fig9),
    "fleet": ("multi-site fleet orchestration policy comparison", _fleet),
    "dispatch": ("coupled energy dispatch (UPS-as-carbon-buffer) comparison", _dispatch),
    "forecast": ("forecast lookahead dispatch vs heuristic, with regret", _forecast),
    "table1": ("Geekbench throughput per device", _table("render_table1")),
    "table2": ("measured power curves per device", _table("render_table2")),
    "table3": ("per-component embodied carbon", _table("render_table3")),
    "table4": ("datacenter-scale projections", _table("render_table4")),
}


def list_targets() -> str:
    """One line per runnable target."""
    width = max(len(name) for name in REGISTRY)
    lines = ["Available targets:"]
    for name, (description, _) in sorted(REGISTRY.items()):
        lines.append(f"  {name:<{width}}  {description}")
    lines.append("\nRun with: python -m repro run <target> [<target> ...]")
    lines.append("Scenarios: python -m repro scenarios")
    return "\n".join(lines)


def list_scenarios() -> str:
    """One line per registered scenario preset."""
    from repro.scenarios import all_scenarios

    specs = all_scenarios()
    width = max(len(spec.name) for spec in specs)
    lines = ["Registered scenarios:"]
    for spec in specs:
        sites = ", ".join(site.name for site in spec.sites)
        lines.append(f"  {spec.name:<{width}}  {spec.description}")
        lines.append(
            f"  {'':<{width}}  sites: {sites}; policy: {spec.routing.policy}; "
            f"{spec.duration_days} days"
        )
    lines.append(
        "\nRun with: python -m repro run scenario <name> [--set dotted.path=value ...]"
    )
    return "\n".join(lines)


def _resolve_scenario(name: str):
    """Look up a registered scenario, printing the catalog on a miss."""
    from repro.scenarios import get_scenario, scenario_names

    try:
        return get_scenario(name)
    except KeyError:
        known = "\n  ".join(scenario_names())
        print(f"unknown scenario {name!r}; registered scenarios:\n  {known}")
        return None


def _open_store(store_dir):
    """An :class:`~repro.store.ExperimentStore` at ``store_dir`` (or None)."""
    if store_dir is None:
        return None
    from repro.store import ExperimentStore

    return ExperimentStore(store_dir)


def _parse_axes(set_args):
    """Parse --set sweep axes, rejecting duplicates."""
    from repro.scenarios import ScenarioValidationError, parse_sweep_override

    axes = {}
    for text in set_args or []:
        key, values = parse_sweep_override(text)
        if key in axes:
            raise ScenarioValidationError(
                f"duplicate sweep axis {key!r}; list every value in one "
                f"--set {key}=v1,v2"
            )
        axes[key] = values
    return axes


def _open_progress(progress_arg, total_days=None):
    """A live :class:`ProgressReporter` for ``--progress`` (or None).

    ``-`` (the bare-flag default) reports to stderr; any other value is a
    path that receives one JSON heartbeat per line.
    """
    if progress_arg is None:
        return None
    from repro.telemetry.observatory import ProgressReporter

    return ProgressReporter(
        total_days=total_days,
        path=None if progress_arg == "-" else progress_arg,
    )


def _sweep_scenario(
    name: str,
    set_args,
    jobs=None,
    telemetry_path=None,
    store_dir=None,
    progress_arg=None,
) -> int:
    """Resolve a scenario and run it over a cartesian --set grid."""
    from repro.analysis import render_sweep_result
    from repro.scenarios import ScenarioValidationError, sweep_scenario
    from repro.telemetry import Telemetry, dump_run

    spec = _resolve_scenario(name)
    if spec is None:
        return 2
    telemetry = Telemetry() if telemetry_path else None
    store = _open_store(store_dir)
    progress = _open_progress(progress_arg)
    try:
        axes = _parse_axes(set_args)
        sweep = sweep_scenario(
            spec, axes, jobs=jobs, telemetry=telemetry, store=store,
            progress=progress,
        )
    except ScenarioValidationError as error:
        print(f"invalid sweep configuration: {error}")
        return 2
    finally:
        if progress is not None:
            progress.close()
    print(render_sweep_result(sweep))
    if store is not None:
        print(f"\nexperiment store: {store_dir} ({len(store)} entries)")
    if telemetry is not None:
        dump_run(
            telemetry_path,
            telemetry,
            name=f"sweep:{name}",
            spec_sha256=spec.sha256(),
            seed=spec.seed,
            extra={"axes": {key: list(values) for key, values in axes.items()}},
        )
        print(f"\ntelemetry written to {telemetry_path}")
    return 0


def _build_spec(name: str, set_args):
    """Resolve a scenario preset and apply --set overrides; None on error."""
    from repro.scenarios import ScenarioValidationError, parse_override

    spec = _resolve_scenario(name)
    if spec is None:
        return None
    try:
        overrides = dict(parse_override(text) for text in set_args or [])
        if overrides:
            spec = spec.with_overrides(overrides)
    except ScenarioValidationError as error:
        print(f"invalid scenario configuration: {error}")
        return None
    return spec


def _run_scenario(
    name: str,
    set_args,
    telemetry_path=None,
    store_dir=None,
    progress_arg=None,
    audit=False,
) -> int:
    """Resolve, override, run, and render one registered scenario.

    With ``store_dir``, the run is store-backed: a stored entry for the
    spec's content hash is loaded instead of simulated (bitwise-identical
    — every simulation is fully seeded), and a fresh run persists its
    result for the next invocation.  ``--audit`` checks conservation
    invariants on the finished run and fails the command on violations;
    ``--progress`` emits live heartbeats while the simulation runs.
    Neither changes a single output bit.
    """
    from repro.analysis import render_scenario_result
    from repro.scenarios import ScenarioRunner, ScenarioValidationError
    from repro.telemetry import Telemetry, build_manifest, dump_run

    if audit:
        set_args = list(set_args or []) + ["execution.audit=true"]
    spec = _build_spec(name, set_args)
    if spec is None:
        return 2
    progress = _open_progress(progress_arg, total_days=spec.duration_days)
    if progress is not None:
        from repro.telemetry.observatory import ProgressTelemetry

        # ProgressTelemetry is-a Telemetry, so --telemetry still dumps.
        telemetry = ProgressTelemetry(progress)
    else:
        telemetry = Telemetry() if telemetry_path else None
    store = _open_store(store_dir)
    cached = store.get_entry_or_none(spec.sha256()) if store is not None else None
    runner = None
    try:
        if cached is not None:
            result = cached.result
        else:
            runner = ScenarioRunner(spec, telemetry=telemetry)
            result = runner.run()
            if store is not None:
                manifest = None
                if telemetry is not None:
                    manifest = build_manifest(
                        telemetry,
                        name=spec.name,
                        spec_sha256=spec.sha256(),
                        seed=spec.seed,
                    )
                store.put(result, manifest=manifest)
    except ScenarioValidationError as error:
        print(f"invalid scenario configuration: {error}")
        return 2
    finally:
        if progress is not None:
            progress.close()
    print(render_scenario_result(result))
    if store is not None:
        state = "loaded from" if cached is not None else "stored in"
        print(f"\n{state} experiment store {store_dir} ({spec.sha256()[:12]})")
    exit_code = 0
    if spec.execution.audit:
        if runner is None or runner.last_audit is None:
            print("\naudit skipped (result loaded from store, not simulated)")
        else:
            print("\n" + runner.last_audit.render())
            if not runner.last_audit.ok:
                exit_code = 1
    if telemetry_path:
        dump_run(
            telemetry_path,
            telemetry,
            name=spec.name,
            spec_sha256=spec.sha256(),
            seed=spec.seed,
        )
        print(f"\ntelemetry written to {telemetry_path}")
    return exit_code


def _profile_scenario(name: str, set_args) -> int:
    """Run one scenario instrumented and print the per-phase breakdown."""
    from repro.scenarios import ScenarioRunner, ScenarioValidationError
    from repro.telemetry import Telemetry, build_manifest, render_profile

    spec = _build_spec(name, set_args)
    if spec is None:
        return 2
    telemetry = Telemetry()
    try:
        ScenarioRunner(spec, telemetry=telemetry).run()
    except ScenarioValidationError as error:
        print(f"invalid scenario configuration: {error}")
        return 2
    manifest = build_manifest(
        telemetry, name=spec.name, spec_sha256=spec.sha256(), seed=spec.seed
    )
    print(render_profile(manifest))
    return 0


def _store_command(targets, store_dir, set_args) -> int:
    """Dispatch ``store ls | show <hash> | gc | report ...`` subcommands."""
    from repro.analysis import render_scenario_result, render_store_summary
    from repro.scenarios import ScenarioValidationError
    from repro.store import (
        STORE_REPORTS,
        ExperimentStore,
        StoreError,
        render_grid_report,
        render_store_report,
    )

    usage = (
        "usage: python -m repro store <ls | show <hash> | gc | "
        "report <name> | report scenario <name> --set dotted.path=v1,v2> "
        "[--store DIR]"
    )
    store = ExperimentStore(store_dir)
    action = targets[0]
    try:
        if action == "ls" and len(targets) == 1:
            print(f"experiment store: {store_dir}")
            print(render_store_summary(store.entries()))
            return 0
        if action == "show" and len(targets) == 2:
            entry = store.get_entry(store.resolve(targets[1]))
            print(
                f"entry {entry.key}\n"
                f"  scenario: {entry.scenario} (seed {entry.seed}, "
                f"{entry.duration_days} days)\n"
                f"  repro version: {entry.repro_version}, manifest: "
                f"{'yes' if entry.manifest is not None else 'no'}\n"
            )
            print(render_scenario_result(entry.result))
            if entry.manifest is not None:
                from repro.telemetry import render_profile

                print()
                print(render_profile(entry.manifest))
            return 0
        if action == "gc" and len(targets) == 1:
            removed = store.gc()
            print(
                f"removed {len(removed)} file(s); "
                f"{len(store)} valid entr(y/ies) remain"
            )
            for path in removed:
                print(f"  {path}")
            return 0
        if action == "report" and len(targets) == 2:
            print(render_store_report(targets[1], store))
            return 0
        if action == "report" and len(targets) == 3 and targets[1] == "scenario":
            spec = _resolve_scenario(targets[2])
            if spec is None:
                return 2
            print(render_grid_report(store, spec, _parse_axes(set_args)))
            return 0
    except ScenarioValidationError as error:
        print(f"invalid store report configuration: {error}")
        return 2
    except StoreError as error:
        print(f"store error: {error}")
        return 1
    print(usage)
    print("registered reports: " + ", ".join(sorted(STORE_REPORTS)))
    return 2


def _validate_telemetry(path: str) -> int:
    """Check a --telemetry JSONL file against the manifest/span schemas."""
    from repro.telemetry import TelemetryValidationError, read_jsonl

    try:
        manifest, spans = read_jsonl(path)
    except OSError as error:
        print(f"cannot read {path}: {error}")
        return 2
    except TelemetryValidationError as error:
        print(f"invalid telemetry file {path}: {error}")
        return 1
    print(
        f"{path}: valid ({manifest['schema']}) — run {manifest['name']!r}, "
        f"{len(spans)} spans, {len(manifest['children'])} children, "
        f"{len(manifest['counters'])} counters"
    )
    return 0


def _trace_telemetry(path: str, out) -> int:
    """Convert a telemetry JSONL file to Chrome trace_event JSON."""
    from repro.telemetry import TelemetryValidationError
    from repro.telemetry.observatory import export_chrome_trace, trace_track_count

    if out is None:
        stem = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
        out = stem + ".trace.json"
    try:
        trace = export_chrome_trace(path, out)
    except OSError as error:
        print(f"cannot read {path}: {error}")
        return 2
    except TelemetryValidationError as error:
        print(f"invalid telemetry file {path}: {error}")
        return 1
    print(
        f"{out}: {len(trace['traceEvents'])} events, "
        f"{trace_track_count(trace)} track(s) — load in Perfetto or "
        "chrome://tracing"
    )
    return 0


def _diff_command(target_a: str, target_b: str, store_dir) -> int:
    """Diff two runs (store hashes or telemetry JSONL paths) field by field."""
    import os

    from repro.store import StoreError
    from repro.telemetry import TelemetryValidationError
    from repro.telemetry.observatory import (
        DiffError,
        diff_runs,
        load_run_source,
        render_diff,
    )

    # Only touch the store when a target is not a file on disk, so diffing
    # two JSONL files never creates an experiment-store directory.
    store = None
    if not (os.path.exists(target_a) and os.path.exists(target_b)):
        store = _open_store(store_dir)
    try:
        diff = diff_runs(
            load_run_source(target_a, store=store),
            load_run_source(target_b, store=store),
        )
    except (DiffError, StoreError, TelemetryValidationError, OSError) as error:
        print(f"diff error: {error}")
        return 2
    print(render_diff(diff))
    return 0 if diff.all_equal else 1


def _bench_command(action, bench_json, history_path, cases, threshold, window) -> int:
    """Dispatch ``bench record | check | log`` against the history file."""
    from repro.telemetry.observatory import (
        BenchHistoryError,
        append_history,
        bench_records,
        check_bench,
        load_bench_json,
        read_history,
        render_history,
    )
    from repro.telemetry.observatory.bench import (
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
    )

    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    if window is None:
        window = DEFAULT_WINDOW
    try:
        if action == "log":
            history = read_history(history_path)
            if not history:
                print(f"no benchmark history at {history_path}")
                return 0
            print(render_history(history, case=cases[0] if cases else None))
            return 0
        payload = load_bench_json(bench_json)
        if action == "record":
            records = bench_records(payload)
            append_history(history_path, records)
            print(
                f"recorded {len(records)} case(s) from {bench_json} "
                f"to {history_path}"
            )
            return 0
        # action == "check"
        history = read_history(history_path)
        ok, lines = check_bench(
            payload, history, cases=cases or None,
            threshold=threshold, window=window,
        )
        for line in lines:
            print(line)
        return 0 if ok else 1
    except (BenchHistoryError, OSError) as error:
        print(f"bench error: {error}")
        return 2


def _run_targets(targets) -> int:
    """Run figure/table targets, with a helpful message on a typo."""
    unknown = [target for target in targets if target not in REGISTRY]
    if unknown:
        known = ", ".join(sorted(REGISTRY))
        print(
            f"unknown target(s): {', '.join(unknown)}\navailable targets: {known}\n"
            "(for scenarios, use: python -m repro run scenario <name>)"
        )
        return 2
    for target in targets:
        description, builder = REGISTRY[target]
        print(f"=== {target}: {description} ===")
        print(builder())
        print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate figures and tables from the Junkyard Computing "
            "reproduction, and run declarative fleet scenarios."
        ),
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list runnable figures and tables")
    subparsers.add_parser("scenarios", help="list registered scenario presets")
    run_parser = subparsers.add_parser(
        "run", help="run targets, or a scenario via: run scenario <name>"
    )
    run_parser.add_argument("targets", nargs="+", metavar="target")
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="dotted.path=value",
        help="override a scenario spec field (repeatable; scenario runs only)",
    )
    run_parser.add_argument(
        "--telemetry",
        metavar="out.jsonl",
        default=None,
        help=(
            "instrument the run and write a telemetry JSONL file "
            "(manifest line, then one record per span; scenario runs only)"
        ),
    )
    run_parser.add_argument(
        "--store",
        dest="store_dir",
        metavar="DIR",
        default=None,
        help=(
            "back the run with an experiment store at DIR: load the result "
            "if its spec hash is stored, persist it otherwise (scenario runs only)"
        ),
    )
    run_parser.add_argument(
        "--progress",
        nargs="?",
        const="-",
        default=None,
        metavar="out.jsonl",
        help=(
            "emit live progress heartbeats (days simulated, device-days/s, "
            "ETA) to stderr, or as JSON lines to a path (scenario runs only)"
        ),
    )
    run_parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "check conservation invariants (energy balance, SoC bounds, "
            "allocation <= capacity) on the finished run; violations fail "
            "the command (scenario runs only)"
        ),
    )
    sweep_parser = subparsers.add_parser(
        "sweep",
        help=(
            "run a scenario over a cartesian grid via: "
            "sweep scenario <name> --set dotted.path=v1,v2"
        ),
    )
    sweep_parser.add_argument("targets", nargs="+", metavar="target")
    sweep_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="dotted.path=v1,v2",
        help="sweep a scenario field over comma-separated values (repeatable)",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run sweep cells on a pool of N worker processes "
            "(results are identical to a serial sweep)"
        ),
    )
    sweep_parser.add_argument(
        "--telemetry",
        metavar="out.jsonl",
        default=None,
        help=(
            "instrument the sweep and write a telemetry JSONL file "
            "(per-cell manifests nest as children of the sweep manifest)"
        ),
    )
    sweep_parser.add_argument(
        "--store",
        dest="store_dir",
        metavar="DIR",
        default=None,
        help=(
            "back the sweep with an experiment store at DIR: cached cells "
            "load instead of simulating, fresh cells persist as they "
            "complete (interrupted sweeps resume)"
        ),
    )
    sweep_parser.add_argument(
        "--progress",
        nargs="?",
        const="-",
        default=None,
        metavar="out.jsonl",
        help=(
            "emit live progress heartbeats (sweep cells done, ETA) to "
            "stderr, or as JSON lines to a path"
        ),
    )
    profile_parser = subparsers.add_parser(
        "profile",
        help=(
            "run a scenario instrumented and print its per-phase "
            "time breakdown via: profile scenario <name>"
        ),
    )
    profile_parser.add_argument("targets", nargs="+", metavar="target")
    profile_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="dotted.path=value",
        help="override a scenario spec field (repeatable)",
    )
    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help=(
            "inspect telemetry files via: telemetry validate <out.jsonl> | "
            "telemetry trace <out.jsonl> [-o trace.json]"
        ),
    )
    telemetry_parser.add_argument("targets", nargs="+", metavar="target")
    telemetry_parser.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="trace.json",
        help=(
            "output path for: telemetry trace "
            "(default: <input stem>.trace.json)"
        ),
    )
    diff_parser = subparsers.add_parser(
        "diff",
        help=(
            "compare two runs field by field via: diff <A> <B> where each "
            "side is a store hash prefix or a telemetry JSONL path"
        ),
    )
    diff_parser.add_argument("targets", nargs=2, metavar="run")
    diff_parser.add_argument(
        "--store",
        dest="store_dir",
        metavar="DIR",
        default="experiment-store",
        help="experiment store for hash lookups (default: experiment-store)",
    )
    bench_parser = subparsers.add_parser(
        "bench",
        help=(
            "benchmark history via: bench record | bench check | bench log "
            "(append-only BENCH_history.jsonl, rolling-baseline regression gate)"
        ),
    )
    bench_parser.add_argument(
        "action", choices=("record", "check", "log"), metavar="action",
        help="record (append snapshot), check (gate vs rolling baseline), log",
    )
    bench_parser.add_argument(
        "--bench-json",
        default=".bench_out/BENCH_fleet_scaling.json",
        metavar="PATH",
        help=(
            "benchmark snapshot to record/check "
            "(default: .bench_out/BENCH_fleet_scaling.json)"
        ),
    )
    bench_parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="append-only history file (default: BENCH_history.jsonl)",
    )
    bench_parser.add_argument(
        "--case",
        dest="cases",
        action="append",
        metavar="NAME",
        help=(
            "restrict check/log to a case (repeatable); a checked case "
            "with no history fails the gate"
        ),
    )
    bench_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed slowdown vs the rolling baseline (default: 0.25)",
    )
    bench_parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="history records per case in the rolling baseline (default: 5)",
    )
    store_parser = subparsers.add_parser(
        "store",
        help=(
            "inspect the experiment store via: store ls | show <hash> | gc | "
            "report <name> | report scenario <name> --set dotted.path=v1,v2"
        ),
    )
    store_parser.add_argument("targets", nargs="+", metavar="target")
    store_parser.add_argument(
        "--store",
        dest="store_dir",
        metavar="DIR",
        default="experiment-store",
        help="experiment store directory (default: experiment-store)",
    )
    store_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="dotted.path=v1,v2",
        help="grid axes for: store report scenario <name> (repeatable)",
    )

    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print(list_targets())
        return 0
    if args.command == "scenarios":
        print(list_scenarios())
        return 0
    if args.command == "sweep":
        if len(args.targets) != 2 or args.targets[0] != "scenario":
            print(
                "usage: python -m repro sweep scenario <name> "
                "--set dotted.path=v1,v2 [--set ...] [--jobs N] "
                "[--telemetry out.jsonl] [--progress [out.jsonl]]"
            )
            return 2
        return _sweep_scenario(
            args.targets[1],
            args.overrides,
            jobs=args.jobs,
            telemetry_path=args.telemetry,
            store_dir=args.store_dir,
            progress_arg=args.progress,
        )
    if args.command == "profile":
        if len(args.targets) != 2 or args.targets[0] != "scenario":
            print(
                "usage: python -m repro profile scenario <name> "
                "[--set dotted.path=value ...]"
            )
            return 2
        return _profile_scenario(args.targets[1], args.overrides)
    if args.command == "telemetry":
        if len(args.targets) == 2 and args.targets[0] == "validate":
            return _validate_telemetry(args.targets[1])
        if len(args.targets) == 2 and args.targets[0] == "trace":
            return _trace_telemetry(args.targets[1], args.out)
        print(
            "usage: python -m repro telemetry validate <out.jsonl> | "
            "telemetry trace <out.jsonl> [-o trace.json]"
        )
        return 2
    if args.command == "diff":
        return _diff_command(args.targets[0], args.targets[1], args.store_dir)
    if args.command == "bench":
        return _bench_command(
            args.action,
            args.bench_json,
            args.history,
            args.cases,
            args.threshold,
            args.window,
        )
    if args.command == "store":
        return _store_command(args.targets, args.store_dir, args.overrides)

    if args.targets and args.targets[0] == "scenario":
        if len(args.targets) != 2:
            print("usage: python -m repro run scenario <name> [--set key=value ...]")
            return 2
        return _run_scenario(
            args.targets[1],
            args.overrides,
            telemetry_path=args.telemetry,
            store_dir=args.store_dir,
            progress_arg=args.progress,
            audit=args.audit,
        )
    if args.overrides:
        print("--set only applies to scenario runs (python -m repro run scenario <name>)")
        return 2
    if args.telemetry:
        print(
            "--telemetry only applies to scenario runs "
            "(python -m repro run scenario <name> --telemetry out.jsonl)"
        )
        return 2
    if args.store_dir:
        print(
            "--store only applies to scenario runs "
            "(python -m repro run scenario <name> --store DIR)"
        )
        return 2
    if args.progress is not None:
        print(
            "--progress only applies to scenario runs "
            "(python -m repro run scenario <name> --progress)"
        )
        return 2
    if args.audit:
        print(
            "--audit only applies to scenario runs "
            "(python -m repro run scenario <name> --audit)"
        )
        return 2
    return _run_targets(args.targets)


if __name__ == "__main__":
    sys.exit(main())
