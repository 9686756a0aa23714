"""Forecast regret's hindsight baseline: dispatch replay vs full re-simulation.

The scenario runner prices a forecast run's regret against the same fleet
dispatched with a perfect forecast.  Routing and churn never read the
dispatch policy, so the runner replays only the dispatch over the main
run's recordings.  The reference below is the full perfect-forecast
re-simulation — fresh sites, fresh fleet run — and every case must match
it bitwise: the baseline figure, the signed regret and the whole stored
result payload.
"""

import dataclasses

import pytest

import repro.scenarios.runner as runner_module
from repro.fleet.scheduler import FleetSimulation, policy_by_name
from repro.forecast.models import PerfectForecast
from repro.scenarios import ScenarioRunner, get_scenario
from repro.telemetry import Telemetry

FAST = {"duration_days": 4, "routing.latency_probe_s": 0.0}

SMALL_PAIR = {"sites.0.devices.count": 20, "sites.1.devices.count": 20}


class _ReferenceRunner(ScenarioRunner):
    """Prices regret by re-simulating the whole fleet with a perfect forecast."""

    def _account_regret(self, report, simulation):
        spec = self.spec
        if spec.charging.coupling != "dispatch" or spec.forecast.model in (
            "none",
            "perfect",
        ):
            return super()._account_regret(report, simulation)
        twin = FleetSimulation(
            self.build_sites(),
            simulation.policy,
            self.build_demand(),
            dispatch=self._forecast_dispatch(PerfectForecast()),
        ).run(spec.duration_days)
        return dataclasses.replace(
            report, hindsight_avoided_g=twin.carbon_avoided_g()
        )


def _pair(name, overrides):
    return get_scenario(name).with_overrides({**FAST, **overrides})


CASES = {
    "noisy-0.3": _pair(
        "forecast-buffer",
        {**SMALL_PAIR, "forecast.model": "noisy", "forecast.noise_sigma": 0.3},
    ),
    "noisy-0.8": _pair(
        "forecast-buffer",
        {**SMALL_PAIR, "forecast.model": "noisy", "forecast.noise_sigma": 0.8},
    ),
    "persistence": _pair(
        "forecast-buffer", {**SMALL_PAIR, "forecast.model": "persistence"}
    ),
    "bucket-churn": _pair(
        "forecast-buffer",
        {
            **SMALL_PAIR,
            "forecast.model": "noisy",
            "forecast.noise_sigma": 0.5,
            "churn.sampler": "bucket",
        },
    ),
    "mixed-cohorts": _pair(
        "heterogeneous-cohorts",
        {
            "sites.0.cohorts.0.count": 20,
            "sites.0.cohorts.1.count": 20,
            "charging.coupling": "dispatch",
            "forecast.model": "noisy",
            "forecast.noise_sigma": 0.4,
        },
    ),
    "refresh-48h": _pair(
        "forecast-buffer",
        {
            **SMALL_PAIR,
            "forecast.model": "noisy",
            "forecast.noise_sigma": 0.3,
            "forecast.horizon_h": 48,
            "forecast.refresh_h": 48,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_the_full_resimulation(case):
    spec = CASES[case]
    ours = ScenarioRunner(spec).run()
    reference = _ReferenceRunner(spec).run()
    assert ours.report.has_regret_accounting
    assert ours.report.hindsight_avoided_g == reference.report.hindsight_avoided_g
    assert ours.raw_regret_g == reference.raw_regret_g
    assert ours.to_dict() == reference.to_dict()


def test_replay_leaves_traced_counters_and_gauges_unchanged():
    spec = CASES["noisy-0.3"]
    ours_tele, reference_tele = Telemetry(), Telemetry()
    ours = ScenarioRunner(spec, telemetry=ours_tele).run()
    reference = _ReferenceRunner(spec, telemetry=reference_tele).run()
    assert ours_tele.counters == reference_tele.counters
    assert ours_tele.gauges == reference_tele.gauges
    assert ours.to_dict() == reference.to_dict()


def test_hindsight_span_runs_no_fleet_phases():
    tele = Telemetry()
    ScenarioRunner(CASES["noisy-0.3"], telemetry=tele).run()
    paths = {span.path for span in tele.spans}
    assert "scenario/hindsight_twin" in paths
    assert not any(path.startswith("scenario/hindsight_twin/") for path in paths)


def test_replay_synthesises_each_trace_once(monkeypatch):
    calls = []
    original = runner_module.regional_trace

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_module, "regional_trace", counted)
    spec = CASES["noisy-0.3"]
    ScenarioRunner(spec).run()
    assert len(calls) == len(spec.sites)


def test_replay_builds_the_truth_table_once(monkeypatch):
    """The hindsight replay plans over the main replay's truth table."""
    import repro.forecast.models as models_module

    calls = []
    original = models_module.hourly_truth

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(models_module, "hourly_truth", counted)
    ScenarioRunner(CASES["noisy-0.3"]).run()
    assert len(calls) == 1


def test_replay_rejects_a_truth_table_of_another_run():
    runner = ScenarioRunner(CASES["noisy-0.3"])
    simulation = FleetSimulation(
        runner.build_sites(),
        policy_by_name("round-robin"),
        runner.build_demand(),
        dispatch=runner.build_dispatch(),
    )
    simulation.run(2)
    truth = simulation.dispatch.truth
    with pytest.raises(ValueError, match="truth table has shape"):
        simulation.replay_avoided_g(
            runner._forecast_dispatch(PerfectForecast()), truth=truth[:, 1:]
        )


def test_replay_needs_a_finished_run():
    runner = ScenarioRunner(CASES["noisy-0.3"])
    simulation = FleetSimulation(
        runner.build_sites(), policy_by_name("round-robin"), runner.build_demand()
    )
    with pytest.raises(RuntimeError, match="finished run"):
        simulation.replay_avoided_g(runner._forecast_dispatch(PerfectForecast()))
