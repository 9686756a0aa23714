"""Reports rendered from the store alone — provably without simulating."""

import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.sweep import sweep_scenario
from repro.analysis import render_sweep_result
from repro.store import (
    STORE_REPORTS,
    ExperimentStore,
    StoreError,
    render_grid_report,
    render_store_report,
    sweep_from_store,
)

FAST = {"duration_days": 2, "routing.latency_probe_s": 0.0}
AXES = {"demand.fraction_of_capacity": [0.3, 0.6]}


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """A store holding one swept grid, plus the live sweep for comparison."""
    spec = get_scenario("carbon-buffer").with_overrides(FAST)
    store = ExperimentStore(str(tmp_path_factory.mktemp("es") / "store"))
    sweep = sweep_scenario(spec, AXES, store=store)
    return store, spec, sweep


def _forbid_simulation(monkeypatch):
    def explode(self):
        raise AssertionError("report path must not simulate")

    monkeypatch.setattr(ScenarioRunner, "run", explode)


def test_grid_report_reassembles_the_sweep_bitwise(warmed, monkeypatch):
    store, spec, sweep = warmed
    _forbid_simulation(monkeypatch)
    rebuilt = sweep_from_store(store, spec, AXES)
    assert rebuilt.axes == sweep.axes
    for a, b in zip(sweep.cells, rebuilt.cells):
        assert a.overrides == b.overrides
        assert a.result.summary_dict() == b.result.summary_dict()
    assert render_grid_report(store, spec, AXES) == render_sweep_result(sweep)


def test_grid_report_names_missing_cells(warmed, monkeypatch):
    store, spec, _ = warmed
    _forbid_simulation(monkeypatch)
    wider = {"demand.fraction_of_capacity": [0.3, 0.6, 0.9]}
    with pytest.raises(StoreError, match="1 of 3 grid cells") as excinfo:
        sweep_from_store(store, spec, wider)
    assert "demand.fraction_of_capacity=0.9" in str(excinfo.value)
    assert "--store" in str(excinfo.value)


def test_grid_report_requires_axes(warmed):
    store, spec, _ = warmed
    with pytest.raises(StoreError, match="at least one"):
        sweep_from_store(store, spec, {})


def test_grid_report_rejects_an_axis_with_no_values(warmed):
    store, spec, _ = warmed
    with pytest.raises(StoreError, match="at least one value"):
        sweep_from_store(store, spec, {"demand.fraction_of_capacity": []})


def test_registered_reports_render_without_simulation(warmed, monkeypatch):
    store, _, _ = warmed
    _forbid_simulation(monkeypatch)
    assert {"summary", "scenarios", "regret"} <= set(STORE_REPORTS)
    summary = render_store_report("summary", store)
    assert "carbon-buffer" in summary and "2 stored experiment(s)" in summary
    scenarios = render_store_report("scenarios", store)
    assert "carbon-buffer" in scenarios and "2" in scenarios
    # No forecast runs stored: the regret report says so instead of erroring.
    assert "no stored forecast" in render_store_report("regret", store)


def test_regret_report_covers_forecast_entries(tmp_path, monkeypatch):
    spec = get_scenario("forecast-buffer").with_overrides(
        {**FAST, "forecast.model": "noisy", "forecast.noise_sigma": 0.2}
    )
    store = ExperimentStore(str(tmp_path / "es"))
    store.put(ScenarioRunner(spec).run())
    _forbid_simulation(monkeypatch)
    rendered = render_store_report("regret", store)
    assert "noisy" in rendered and "forecast-buffer" in rendered


def test_unknown_report_name_lists_registered(warmed):
    store, _, _ = warmed
    with pytest.raises(StoreError, match="summary"):
        render_store_report("nope", store)


def test_custom_reports_register(warmed):
    store, _, _ = warmed

    from repro.store import register_store_report

    @register_store_report("test-entry-count", "test probe")
    def _count(s):
        return f"{len(s)} entries"

    try:
        assert render_store_report("test-entry-count", store) == "2 entries"
    finally:
        STORE_REPORTS.pop("test-entry-count", None)
