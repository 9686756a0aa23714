"""Reports rendered from the experiment store alone — no simulation.

The figure-registry pattern the CLI already uses for paper figures,
applied to stored results: each report is a named, described renderer
taking an :class:`~repro.store.ExperimentStore` and returning printable
text.  Adding a report is one :func:`register_store_report` entry, and
``python -m repro store report <name>`` picks it up automatically.

:func:`sweep_from_store` is the load-bearing piece: it reassembles a full
:class:`~repro.scenarios.sweep.SweepResult` for any base-spec + axes grid
purely from stored entries — bitwise-identical to running
:func:`~repro.scenarios.sweep.sweep_scenario`, because stored results are
bitwise-identical to fresh simulations.  Grids therefore compose
incrementally across runs (and PRs): sweep the new cells with ``--store``,
then render any cross-cutting table from the accumulated store.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.analysis.report import render_store_summary, render_sweep_result
from repro.ioutils import format_table
from repro.scenarios.spec import ScenarioSpec, ScenarioValidationError
from repro.scenarios.sweep import SweepCell, SweepResult, sweep_grid
from repro.store.core import ExperimentStore, StoreError

#: Report name -> (description, renderer taking the store).
STORE_REPORTS: Dict[str, Tuple[str, Callable[[ExperimentStore], str]]] = {}


def register_store_report(name: str, description: str):
    """Register a store report renderer under ``name`` (decorator)."""

    def decorate(builder: Callable[[ExperimentStore], str]):
        STORE_REPORTS[name] = (description, builder)
        return builder

    return decorate


def render_store_report(name: str, store: ExperimentStore) -> str:
    """Render one registered report; :class:`StoreError` names unknowns."""
    if name not in STORE_REPORTS:
        known = ", ".join(sorted(STORE_REPORTS))
        raise StoreError(f"unknown store report {name!r}; registered: {known}")
    _, builder = STORE_REPORTS[name]
    return builder(store)


@register_store_report("summary", "one row per stored experiment")
def _summary_report(store: ExperimentStore) -> str:
    return render_store_summary(store.entries())


@register_store_report(
    "scenarios", "per-scenario entry counts and best stored CCI"
)
def _scenarios_report(store: ExperimentStore) -> str:
    by_scenario: Dict[str, list] = {}
    for entry in store.entries():
        by_scenario.setdefault(entry.scenario, []).append(entry)
    if not by_scenario:
        return "experiment store is empty"
    headers = ["Scenario", "Entries", "Best CCI (g/req)", "Seeds", "Days"]
    rows = []
    for scenario in sorted(by_scenario):
        entries = by_scenario[scenario]
        best = min(entry.result.cci_g_per_request for entry in entries)
        seeds = sorted({entry.seed for entry in entries})
        days = sorted({entry.duration_days for entry in entries})
        rows.append(
            [
                scenario,
                str(len(entries)),
                f"{best:.3e}",
                ",".join(str(seed) for seed in seeds),
                ",".join(str(d) for d in days),
            ]
        )
    return format_table(headers, rows)


@register_store_report(
    "regret", "forecast regret accounting across stored forecast runs"
)
def _regret_report(store: ExperimentStore) -> str:
    headers = [
        "Key",
        "Scenario",
        "Model",
        "Avoided (kg)",
        "Hindsight (kg)",
        "Regret (kg)",
    ]
    rows = []
    for entry in store.entries():
        result = entry.result
        if result.forecast_model in ("none",):
            continue
        hindsight = result.hindsight_carbon_avoided_g
        rows.append(
            [
                entry.key[:12],
                entry.scenario,
                result.forecast_model,
                f"{result.carbon_avoided_g / 1e3:.3f}",
                f"{hindsight / 1e3:.3f}" if hindsight is not None else "-",
                f"{result.regret_g / 1e3:.3f}",
            ]
        )
    if not rows:
        return "no stored forecast-dispatch runs"
    return format_table(headers, rows)


def sweep_from_store(
    store: ExperimentStore,
    spec: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
) -> SweepResult:
    """Reassemble a :class:`SweepResult` for ``spec`` x ``axes`` from the store.

    Builds the same row-major grid :func:`sweep_scenario` would, loads each
    cell's entry by content hash, and raises :class:`StoreError` naming any
    missing cells (with the override values that produced them), so a
    partially swept grid fails loudly instead of rendering a partial table.
    """
    try:
        axis_values, grid = sweep_grid(axes)
    except ScenarioValidationError as error:
        raise StoreError(f"grid report: {error}") from None
    cells = []
    missing = []
    for overrides in grid:
        cell_spec = spec.with_overrides(overrides)
        key = cell_spec.sha256()
        entry = store.get_entry_or_none(key)
        if entry is None:
            missing.append((key, overrides))
            continue
        cells.append(
            SweepCell(overrides=tuple(overrides.items()), result=entry.result)
        )
    if missing:
        detail = "; ".join(
            f"{key[:12]} ({', '.join(f'{k}={v}' for k, v in overrides.items())})"
            for key, overrides in missing[:4]
        )
        raise StoreError(
            f"{len(missing)} of {len(grid)} grid cells are not in the store: "
            f"{detail}{'...' if len(missing) > 4 else ''} — run the sweep "
            f"with --store first"
        )
    return SweepResult(base=spec, axes=axis_values, cells=tuple(cells))


def render_grid_report(
    store: ExperimentStore,
    spec: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
) -> str:
    """Render the sweep table for a stored grid, without simulating."""
    return render_sweep_result(sweep_from_store(store, spec, axes))
