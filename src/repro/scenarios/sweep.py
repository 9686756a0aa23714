"""Cartesian scenario sweeps: one spec, a grid of overrides, one table.

A sweep takes a base :class:`~repro.scenarios.spec.ScenarioSpec` and a
mapping of dotted override paths to *lists* of values, runs the scenario at
every cell of the cartesian product (via
:meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`, so every cell is
itself a valid, serializable spec), and tabulates the headline metrics —
fleet CCI, dollars per request, operational carbon — per cell.  The CLI's
``python -m repro sweep scenario <name> --set routing.policy=a,b
--set demand.fraction_of_capacity=0.3,0.6`` feeds this directly.

``jobs=N`` fans the grid out over a process pool.  Cells are keyed by their
spec hash (the SHA-256 of the cell's canonical JSON): identical cells share
one simulation, worker results are reassembled by key into row-major grid
order, and — because every simulation is fully seeded — a parallel sweep is
bitwise-identical to the serial one regardless of completion order.

Forecast cells need no coordination: each cell prices its own regret by
replaying its run's dispatch under a perfect forecast (see
:class:`~repro.scenarios.runner.ScenarioRunner`), so a cell's result
depends on its spec alone.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fleet.scheduler import policy_by_name
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    ScenarioValidationError,
    decode_override_value,
)
from repro.telemetry import Telemetry, build_manifest, ensure_telemetry


@dataclass(frozen=True)
class SweepCell:
    """One grid point: the overrides that produced it and its result."""

    overrides: Tuple[Tuple[str, Any], ...]
    result: ScenarioResult

    @property
    def cci_g_per_request(self) -> float:
        return self.result.cci_g_per_request

    @property
    def usd_per_request(self) -> float:
        return self.result.usd_per_request

    @property
    def operational_carbon_kg(self) -> float:
        return self.result.report.total_operational_carbon_g / 1_000.0


@dataclass(frozen=True)
class SweepResult:
    """Every cell of one cartesian sweep, in row-major axis order."""

    base: ScenarioSpec
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    cells: Tuple[SweepCell, ...]

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def best_cell(self) -> SweepCell:
        """The cell with the lowest fleet CCI."""
        return min(self.cells, key=lambda cell: cell.cci_g_per_request)

    def table(self) -> Tuple[List[str], List[List[str]]]:
        """``(headers, rows)`` ready for text rendering: one row per cell."""
        headers = list(self.axis_names) + [
            "CCI (g/req)",
            "$/request",
            "Op. carbon (kg)",
        ]
        rows = []
        for cell in self.cells:
            values = dict(cell.overrides)
            rows.append(
                [str(values[name]) for name in self.axis_names]
                + [
                    f"{cell.cci_g_per_request:.3e}",
                    f"{cell.usd_per_request:.3e}",
                    f"{cell.operational_carbon_kg:.2f}",
                ]
            )
        return headers, rows


def _cell_manifest(
    telemetry: Telemetry, spec: ScenarioSpec, key: str
) -> Dict[str, Any]:
    """The per-cell manifest a sweep reassembles: timings + counters for one cell."""
    return build_manifest(
        telemetry,
        name=f"{spec.name}[{key[:12]}]",
        spec_sha256=key,
        seed=spec.seed,
        extra={"duration_days": spec.duration_days},
    )


def _run_cell(
    spec: ScenarioSpec, with_telemetry: bool = False
) -> Tuple[ScenarioResult, Optional[Dict[str, Any]]]:
    """Run one cell, on the serial path or in a pool worker.

    With ``with_telemetry`` the run is instrumented by its own child
    :class:`Telemetry` and the cell manifest comes back with the result
    (spans stay in the child manifest — a worker's clock is not comparable
    to the parent's).
    """
    telemetry = Telemetry() if with_telemetry else None
    result = ScenarioRunner(spec, telemetry=telemetry).run()
    manifest = (
        _cell_manifest(telemetry, spec, spec.sha256()) if with_telemetry else None
    )
    return result, manifest


def _run_spec_json(
    text: str, with_telemetry: bool = False
) -> Tuple[ScenarioResult, Optional[Dict[str, Any]]]:
    """Process-pool entry point: rebuild the cell's spec and run it.

    Ships the spec as JSON rather than a pickled object so a worker always
    re-validates through the same :meth:`ScenarioSpec.from_json` path the
    CLI and registry use.
    """
    return _run_cell(ScenarioSpec.from_json(text), with_telemetry)


def _run_unique(
    unique: Dict[str, ScenarioSpec],
    jobs: Optional[int],
    with_telemetry: bool = False,
    persist: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]]:
    """Run each unique spec once, serially or over a process pool.

    Returns ``key -> (result, manifest)`` where the manifest is ``None``
    unless ``with_telemetry``; both paths run each cell through
    :func:`_run_cell`, so they produce identical manifests (modulo
    wall-clock timings).

    ``persist`` is an optional ``(key, result, manifest)`` callback invoked
    as each cell's result materialises in *this* process (per completed run
    serially; as futures are collected in key order under a pool), so a
    store-backed sweep checkpoints finished cells even when a later cell —
    or the process itself — dies.

    ``progress`` is an optional
    :class:`~repro.telemetry.observatory.progress.ProgressReporter`; its
    ``cell_done`` ticks as each result reaches this process.  Progress
    observes completions only — it never feeds anything back, so results
    are bitwise-identical with or without it.
    """
    out: Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]] = {}

    def collect(key: str, pair) -> None:
        if persist is not None:
            persist(key, *pair)
        if progress is not None:
            progress.cell_done()
        out[key] = pair

    if jobs is None or jobs == 1 or len(unique) <= 1:
        for key, cell_spec in unique.items():
            collect(key, _run_cell(cell_spec, with_telemetry))
        return out
    with ProcessPoolExecutor(max_workers=min(jobs, len(unique))) as pool:
        futures = {
            key: pool.submit(_run_spec_json, cell_spec.to_json(), with_telemetry)
            for key, cell_spec in unique.items()
        }
        for key, future in futures.items():
            collect(key, future.result())
    return out


def _fold_sweep_telemetry(
    telemetry: Telemetry,
    keys: Sequence[str],
    pairs: Mapping[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]],
) -> None:
    """Fold per-cell manifests into the sweep's telemetry, in ``keys`` order.

    ``keys`` are the unique cells in the grid's first-occurrence order —
    never worker completion order — so a parallel sweep's merged telemetry
    is identical to the serial one's.
    """
    if not telemetry.enabled:
        return
    for key in keys:
        manifest = pairs[key][1]
        if manifest is not None:
            telemetry.add_child(manifest)


def _run_cells(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int],
    telemetry: Optional[Telemetry] = None,
    store: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> List[ScenarioResult]:
    """Run every cell spec, serially or over a process pool, in grid order.

    Cells are keyed by spec hash either way: cells that hash equal share one
    simulation, and results are reassembled in grid order, so the serial and
    parallel paths return identical tables.

    With an enabled ``telemetry``, each unique simulation is instrumented
    (workers ship their manifests back), per-cell manifests become the
    sweep telemetry's children in deterministic grid order, and the dedup
    bookkeeping is recorded as ``sweep.*`` counters.

    With a ``store`` (an :class:`~repro.store.ExperimentStore`), cells whose
    spec hash already has an entry are *loaded* instead of simulated, every
    freshly simulated cell is persisted as soon as its result reaches this
    process, and the hit/miss/write bookkeeping lands in ``store.*``
    counters — because every simulation is fully seeded, a cache-hit sweep
    is bitwise-identical to a from-scratch one, and a sweep killed mid-grid
    resumes from the completed cells.
    """
    telemetry = ensure_telemetry(telemetry)
    if jobs is not None and jobs < 1:
        raise ScenarioValidationError(f"jobs must be >= 1, got {jobs}")
    keys = [cell_spec.sha256() for cell_spec in specs]
    unique: Dict[str, ScenarioSpec] = {}
    for key, cell_spec in zip(keys, specs):
        unique.setdefault(key, cell_spec)
    if progress is not None:
        progress.set_total_cells(len(unique))

    # Store lookup: every unique cell already persisted loads instead of
    # simulating.
    pairs: Dict[str, Tuple[ScenarioResult, Optional[Dict[str, Any]]]] = {}
    if store is not None:
        for key in unique:
            entry = store.get_entry_or_none(key)
            if entry is not None:
                pairs[key] = (entry.result, entry.manifest)
    if progress is not None and pairs:
        progress.cell_done(len(pairs))  # store hits complete instantly
    pending = {key: spec for key, spec in unique.items() if key not in pairs}

    writes = 0

    def persist(key: str, result: ScenarioResult, manifest) -> None:
        nonlocal writes
        if store is not None:
            store.put(result, manifest=manifest)
            writes += 1

    if telemetry.enabled:
        telemetry.count("sweep.cells", len(keys))
        telemetry.count("sweep.unique_cells", len(unique))
        telemetry.count("sweep.dedup_hits", len(keys) - len(unique))
        if store is not None:
            telemetry.count("store.hits", len(pairs))
            telemetry.count("store.misses", len(pending))

    pairs.update(
        _run_unique(
            pending,
            jobs,
            with_telemetry=telemetry.enabled,
            persist=persist,
            progress=progress,
        )
    )
    if telemetry.enabled and store is not None:
        telemetry.count("store.writes", writes)
    _fold_sweep_telemetry(telemetry, list(unique), pairs)
    return [pairs[key][0] for key in keys]


def sweep_scenario(
    spec: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    jobs: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    store: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> SweepResult:
    """Run ``spec`` over the cartesian grid of ``axes`` overrides.

    ``axes`` maps dotted override paths (the same paths ``--set`` accepts)
    to the list of values to sweep; axis order follows the mapping's
    insertion order and cells are produced row-major (last axis fastest).
    Every cell's spec is built (and therefore validated) up front, so an
    invalid path or value anywhere in the grid fails before any simulation
    time is spent.

    ``jobs`` caps the number of worker processes running cells concurrently
    (``None`` or ``1`` runs serially in-process).  Cell order, and every
    number in every cell, is identical either way: simulations are fully
    seeded and results are reassembled by spec hash into grid order.

    ``telemetry`` (default: the no-op null) instruments the sweep: per-cell
    run manifests become its children in grid order and dedup bookkeeping
    lands in ``sweep.*`` counters.  Telemetry never feeds back
    into the simulations, so an instrumented sweep's numbers are
    bitwise-identical to an uninstrumented one's.

    ``store`` (an :class:`~repro.store.ExperimentStore`) makes the sweep
    durable and resumable: cells whose spec hash is already stored load
    instead of simulating, freshly simulated cells persist the moment they
    complete, and hit/miss/write bookkeeping lands in ``store.*`` counters.
    Because every simulation is fully seeded, a store-backed sweep —
    cached, resumed, or from scratch — returns bitwise-identical results.

    ``progress`` (a
    :class:`~repro.telemetry.observatory.progress.ProgressReporter`) emits
    live heartbeats as cells complete — store hits tick immediately.
    Progress observes; it never feeds back, so results are identical with
    or without it.
    """
    axis_values, grid = sweep_grid(axes)
    specs = [spec.with_overrides(overrides) for overrides in grid]
    # Routing-policy names only resolve at run time; check them here so a
    # typo in the last axis value cannot waste the rest of the grid.
    for cell_spec in specs:
        try:
            policy_by_name(
                cell_spec.routing.policy, wear_derate=cell_spec.routing.wear_derate
            )
        except ValueError as error:
            raise ScenarioValidationError(f"routing.policy: {error}") from None
    tele = ensure_telemetry(telemetry)
    with tele.span("sweep"):
        results = _run_cells(
            specs,
            jobs,
            telemetry=tele,
            store=store,
            progress=progress,
        )
    cells = [
        SweepCell(overrides=tuple(overrides.items()), result=result)
        for overrides, result in zip(grid, results)
    ]
    return SweepResult(base=spec, axes=axis_values, cells=tuple(cells))


def sweep_grid(
    axes: Mapping[str, Sequence[Any]],
) -> Tuple[Tuple[Tuple[str, Tuple[Any, ...]], ...], List[Dict[str, Any]]]:
    """A sweep's ``axes`` tuple and its row-major grid of override dicts.

    Axis order follows the mapping's insertion order, the last axis
    fastest.  Raises :class:`ScenarioValidationError` when there is no
    axis or an axis lists no value.
    """
    if not axes:
        raise ScenarioValidationError("a sweep needs at least one --set axis")
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ScenarioValidationError(
                f"sweep axis {name!r} must list at least one value"
            )
    axis_values = tuple((name, tuple(values)) for name, values in axes.items())
    grid = [
        dict(zip(axes, combo))
        for combo in itertools.product(*(values for _, values in axis_values))
    ]
    return axis_values, grid


def parse_sweep_override(text: str) -> Tuple[str, List[Any]]:
    """Parse one CLI ``dotted.path=v1,v2,...`` sweep axis.

    The value list is JSON-decoded when possible (``--set k=[1,2]`` or a
    single JSON scalar) and otherwise split on commas with each element
    JSON-decoded individually (``--set routing.policy=round-robin,marginal-cci``
    yields strings, ``--set demand.fraction_of_capacity=0.3,0.6`` floats).
    A single value is a one-element axis, so sweeps compose with plain
    pinned overrides.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ScenarioValidationError(
            f"sweep override {text!r} is not of the form dotted.path=v1,v2"
        )
    try:
        whole = json.loads(raw)
    except json.JSONDecodeError:
        # Bare (non-JSON) text: commas separate axis values.
        return key, [decode_override_value(chunk) for chunk in raw.split(",")]
    # Valid JSON is taken whole, so a quoted string may contain commas.
    return key, list(whole) if isinstance(whole, list) else [whole]
