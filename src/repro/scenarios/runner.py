"""Resolve a :class:`~repro.scenarios.spec.ScenarioSpec` and run it.

The runner is the single place where declarative specs meet the live
subsystems: it builds :class:`~repro.fleet.sites.FleetSite` objects from the
spec (devices catalog, grid traces, churn policies), runs the vectorized
fleet simulation under the named routing policy, prices forecast regret by
replaying that run's dispatch under a perfect forecast (no second fleet
simulation), optionally probes request latency through per-site FIFO queues,
prices the realised churn through
:class:`~repro.economics.FleetCostModel`, and estimates smart-charging
headroom — returning everything as one :class:`ScenarioResult`.

Determinism: every stochastic component is seeded from ``spec.seed`` (see
:class:`ScenarioRunner` for the per-site convention), so running the same
spec twice yields identical results.  :meth:`ScenarioRunner.build_sites` is
the library's one site builder.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.devices.catalog import get_device
from repro.economics.cost import FleetCostModel, OwnershipCost
from repro.fleet.dispatch import (
    CarbonBufferDispatch,
    DispatchPolicy,
    ForecastDispatch,
    estimate_fleet_savings,
)
from repro.forecast.models import PerfectForecast, forecast_model_by_name
from repro.fleet.population import (
    ChurnTable,
    DeviceCohort,
    FailureModel,
    ReplacementPolicy,
)
from repro.fleet.reporting import FleetReport
from repro.fleet.scheduler import (
    DiurnalDemand,
    FleetSimulation,
    policy_by_name,
    simulate_latency_aware,
)
from repro.fleet.sites import FleetSite, default_intake_stream, regional_trace
from repro.grid.traces import DATA_DIR, GridTrace
from repro.scenarios.spec import (
    LOAD_PROFILE_REGISTRY,
    DeviceMixSpec,
    ScenarioSpec,
    ScenarioValidationError,
    SiteSpec,
    TraceSpec,
)
from repro.simulation.metrics import LatencySummary
from repro.telemetry import ensure_telemetry


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run measured.

    ``report`` is the full :class:`~repro.fleet.reporting.FleetReport`;
    ``site_costs`` maps site name to its :class:`~repro.economics.OwnershipCost`
    over the horizon (empty when economics is disabled); ``latency`` is the
    latency probe summary (``None`` when the probe is disabled);
    ``charging_savings`` maps site name to the fractional operational-carbon
    savings of smart charging there — *realised* from the dispatched battery
    ledger when ``charging_mode == "dispatch"``, the detached study's
    *estimate* when ``"estimate"``, empty when ``"none"``.

    ``forecast_model`` names the forecast feeding the lookahead dispatch
    (``"none"`` when dispatch ran the previous-day heuristic or was off);
    when a forecast ran, the report carries regret accounting —
    :attr:`regret_g` is the carbon the hindsight-optimal plan would have
    additionally avoided.
    """

    spec: ScenarioSpec
    report: FleetReport
    site_costs: Dict[str, OwnershipCost]
    latency: Optional[LatencySummary]
    charging_savings: Dict[str, float]
    charging_mode: str = "none"
    forecast_model: str = "none"
    #: Snapshot of the run's telemetry counters and gauges (``None`` when
    #: the runner was not instrumented).  Counters only — span timings live
    #: in the :class:`~repro.telemetry.Telemetry` object / JSONL sink, not
    #: in the result, so results stay comparable across machines.
    telemetry: Optional[Dict[str, float]] = None

    # -- headline metrics --------------------------------------------------

    @property
    def cci_g_per_request(self) -> float:
        """Fleet CCI: grams of CO2e per served request."""
        return self.report.fleet_cci_g_per_request()

    @property
    def total_cost_usd(self) -> float:
        """Total ownership + churn cost over the horizon (0 when disabled)."""
        return sum(cost.total_usd for cost in self.site_costs.values())

    @property
    def usd_per_request(self) -> float:
        """Dollars per served request over the horizon (0 when disabled)."""
        if not self.site_costs:
            return 0.0
        return self.total_cost_usd / max(self.report.total_served_requests, 1.0)

    @property
    def carbon_avoided_g(self) -> float:
        """Carbon (g) the dispatched battery ledger realised over the horizon."""
        return self.report.carbon_avoided_g()

    @property
    def hindsight_carbon_avoided_g(self) -> Optional[float]:
        """Carbon (g) the hindsight-optimal plan avoids; ``None`` without regret accounting."""
        return self.report.hindsight_avoided_g

    @property
    def regret_g(self) -> float:
        """Forecast regret (g), clamped at zero (see :attr:`raw_regret_g`)."""
        return self.report.forecast_regret_g()

    @property
    def raw_regret_g(self) -> float:
        """Signed forecast regret (g): negative when a noisy forecast lucked
        past the greedy hindsight plan instead of being clamped to zero."""
        return self.report.raw_forecast_regret_g()

    def summary_dict(self) -> Dict[str, object]:
        """Headline numbers, convenient for asserts, JSON dumps, and the CLI."""
        summary: Dict[str, object] = {
            "scenario": self.spec.name,
            "policy": self.report.policy_name,
            "duration_days": self.spec.duration_days,
            "seed": self.spec.seed,
            **self.report.summary_dict(),
        }
        if self.site_costs:
            summary["total_cost_usd"] = self.total_cost_usd
            summary["usd_per_request"] = self.usd_per_request
        if self.latency is not None:
            summary["latency_median_ms"] = self.latency.median_ms
            summary["latency_p99_ms"] = self.latency.p99_ms
        if self.charging_mode != "none":
            summary["charging_coupling"] = self.charging_mode
        if self.forecast_model != "none":
            summary["forecast_model"] = self.forecast_model
        for site, savings in self.charging_savings.items():
            summary[f"smart_charging_savings[{site}]"] = savings
        if self.telemetry is not None:
            summary["telemetry"] = dict(self.telemetry)
        return summary

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding with exact round-trip (arrays included).

        Delegates to :mod:`repro.store.serialize` (imported lazily — the
        runner must stay importable without the store and vice versa);
        :meth:`from_dict` inverts it bitwise, which is what lets the
        experiment store substitute a loaded result for a simulation.
        """
        from repro.store.serialize import result_to_dict

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioResult":
        """Invert :meth:`to_dict` (raises
        :class:`~repro.store.SerializationError` on a bad payload)."""
        from repro.store.serialize import result_from_dict

        return result_from_dict(payload)


class ScenarioRunner:
    """Builds and runs the fleet experiment a :class:`ScenarioSpec` describes.

    ``telemetry`` optionally instruments the run: the runner brackets its
    stages with spans (``build_sites`` / ``main_run`` / ``hindsight_twin``
    — the regret baseline's dispatch replay — / ``economics`` /
    ``latency_probe`` / ``charging_savings``), the main
    fleet simulation records its per-day phases and counters into the same
    context, and the result carries a counter snapshot
    (:attr:`ScenarioResult.telemetry`).  Telemetry never perturbs the
    simulation: instrumented and un-instrumented runs are bitwise-identical.

    Seeds: site ``i`` (in spec order) seeds its first cohort's churn stream
    with ``spec.seed + i`` and its regional trace with ``2021 + spec.seed +
    i``; each further cohort ``k`` of a mixed site seeds from the pair
    ``(spec.seed + i, k)``, so the streams are mutually independent and
    adding a cohort never perturbs an existing one.
    """

    def __init__(self, spec: ScenarioSpec, telemetry=None) -> None:
        self.spec = spec
        self.telemetry = ensure_telemetry(telemetry)
        #: The invariant-audit outcome of the last :meth:`run`
        #: (:class:`~repro.telemetry.observatory.audit.AuditReport`), or
        #: ``None`` when ``spec.execution.audit`` is off.
        self.last_audit = None

    # -- resolution --------------------------------------------------------

    def build_trace(self, site: SiteSpec, index: int) -> GridTrace:
        """Materialise one site's grid trace from its :class:`TraceSpec`
        (a regional trace is seeded as the class docstring states)."""
        trace_spec: TraceSpec = site.trace
        if trace_spec.kind == "regional":
            return regional_trace(
                trace_spec.region,
                n_days=trace_spec.n_days,
                seed=2021 + self.spec.seed + index,
            )
        if trace_spec.kind == "csv":
            path = trace_spec.csv_path
            # Relative paths that don't resolve locally fall back to the
            # bundled data directory, keeping serialized specs portable.
            if not os.path.isabs(path) and not os.path.exists(path):
                bundled = os.path.join(DATA_DIR, path)
                if os.path.exists(bundled):
                    path = bundled
            try:
                return GridTrace.from_csv(
                    path,
                    time_col=trace_spec.time_col,
                    intensity_col=trace_spec.intensity_col,
                )
            except (OSError, ValueError) as error:
                raise ScenarioValidationError(
                    f"sites.{index}.trace.csv_path: cannot load "
                    f"{trace_spec.csv_path!r}: {error}"
                ) from None
        return GridTrace.constant(
            trace_spec.intensity_g_per_kwh,
            duration_s=trace_spec.n_days * 86_400.0,
        )

    def build_cohort(
        self, site: SiteSpec, mix: DeviceMixSpec, index: int, cohort_index: int
    ) -> DeviceCohort:
        """Materialise cohort ``cohort_index`` of site ``index``, seeded as
        the class docstring states."""
        try:
            device = get_device(mix.device)
        except KeyError as error:
            where = (
                f"sites.{index}.cohorts.{cohort_index}.device"
                if site.cohorts
                else f"sites.{index}.devices.device"
            )
            raise ScenarioValidationError(f"{where}: {error.args[0]}") from None
        churn = site.churn
        load_profile = LOAD_PROFILE_REGISTRY[mix.load_profile]
        failure_model = FailureModel(
            annual_rate=churn.annual_failure_rate,
            age_acceleration_per_year=churn.age_acceleration_per_year,
        )
        replacement_policy = ReplacementPolicy(
            target_size=mix.count,
            swap_batteries=churn.swap_batteries,
            max_battery_swaps=churn.max_battery_swaps,
        )
        intake = default_intake_stream(
            device,
            replacement_policy,
            failure_model,
            load_profile,
            arrivals_per_day=churn.intake_per_day,
            initial_spares=churn.initial_spares,
            poisson=churn.poisson_intake,
        )
        base_seed = self.spec.seed + index
        return DeviceCohort(
            device=device,
            policy=replacement_policy,
            intake=intake,
            failure_model=failure_model,
            load_profile=load_profile,
            seed=base_seed if cohort_index == 0 else (base_seed, cohort_index),
            sampler=churn.sampler,
            requests_per_device_s=mix.requests_per_device_s,
        )

    def build_site(self, site: SiteSpec, index: int) -> FleetSite:
        """Materialise one (possibly mixed) :class:`~repro.fleet.sites.FleetSite`."""
        cohorts = tuple(
            self.build_cohort(site, mix, index, cohort_index)
            for cohort_index, mix in enumerate(site.device_mixes)
        )
        return FleetSite(
            name=site.name,
            trace=self.build_trace(site, index),
            cohorts=cohorts,
            network_rtt_s=site.network_rtt_s,
        )

    def build_sites(self) -> List[FleetSite]:
        """Materialise every site of the scenario, in spec order."""
        return [
            self.build_site(site, index) for index, site in enumerate(self.spec.sites)
        ]

    def nominal_capacity_rps(self) -> float:
        """Fleet capacity at full deployment (requests/s), from the spec alone."""
        return sum(
            mix.count * mix.requests_per_device_s
            for site in self.spec.sites
            for mix in site.device_mixes
        )

    def build_demand(self) -> DiurnalDemand:
        """The diurnal demand model the spec describes."""
        demand = self.spec.demand
        mean_rps = (
            demand.mean_rps
            if demand.mean_rps is not None
            else demand.fraction_of_capacity * self.nominal_capacity_rps()
        )
        return DiurnalDemand(
            mean_rps=mean_rps,
            daily_amplitude=demand.daily_amplitude,
            peak_hour=demand.peak_hour,
            weekly_amplitude=demand.weekly_amplitude,
        )

    def build_dispatch(self) -> Optional[DispatchPolicy]:
        """The energy-dispatch policy the charging/forecast specs ask for.

        Without a forecast model the coupled dispatch runs the paper's
        previous-day percentile heuristic; with one, the forecast-aware
        lookahead planner takes over (and packs hold over windows the
        model cannot forecast).
        """
        if self.spec.charging.coupling != "dispatch":
            return None
        forecast = self.spec.forecast
        min_soc = self.spec.charging.min_state_of_charge
        if forecast.model == "none":
            return CarbonBufferDispatch(min_state_of_charge=min_soc)
        return self._forecast_dispatch(self._forecast_model())

    def _forecast_model(self):
        """The forecast model the spec names, with CSV paths resolved.

        A relative ``forecast.csv_path`` that does not exist locally falls
        back to the bundled data directory, mirroring ``trace.csv_path``.
        """
        forecast = self.spec.forecast
        csv_path = forecast.csv_path
        if csv_path and not os.path.isabs(csv_path) and not os.path.exists(csv_path):
            bundled = os.path.join(DATA_DIR, csv_path)
            if os.path.exists(bundled):
                csv_path = bundled
        try:
            return forecast_model_by_name(
                forecast.model,
                noise_sigma=forecast.noise_sigma,
                seed=self.spec.seed,
                csv_path=csv_path,
                time_col=forecast.time_col,
                intensity_col=forecast.intensity_col,
            )
        except (OSError, ValueError) as error:
            raise ScenarioValidationError(
                f"forecast.csv_path: cannot load {forecast.csv_path!r}: {error}"
            ) from None

    def _forecast_dispatch(self, model) -> ForecastDispatch:
        """A :class:`ForecastDispatch` for ``model``, parameterized by the spec.

        The planner's utilisation estimate follows the scenario's own demand
        level (clipped into the planner's ``(0, 1]`` domain), so a lightly
        loaded fleet plans with the idle headroom it actually has — and the
        hindsight baseline's replay is parameterized identically.
        """
        forecast = self.spec.forecast
        demand_fraction = min(
            1.0, max(0.05, self._mean_demand_fraction_of_capacity())
        )
        return ForecastDispatch(
            model,
            horizon_h=forecast.horizon_h,
            refresh_h=forecast.refresh_h,
            min_state_of_charge=self.spec.charging.min_state_of_charge,
            demand_fraction=demand_fraction,
        )

    def _mean_demand_fraction_of_capacity(self) -> float:
        """Mean demand as a fraction of the fleet's nominal capacity."""
        demand = self.spec.demand
        if demand.mean_rps is None:
            return demand.fraction_of_capacity
        capacity = self.nominal_capacity_rps()
        return demand.mean_rps / capacity if capacity > 0 else 1.0

    # -- execution ---------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Run the scenario end-to-end and return the unified result."""
        spec = self.spec
        tele = self.telemetry
        try:
            policy = policy_by_name(
                spec.routing.policy, wear_derate=spec.routing.wear_derate
            )
        except ValueError as error:
            raise ScenarioValidationError(f"routing.policy: {error}") from None
        with tele.span("scenario"):
            with tele.span("build_sites"):
                sites = self.build_sites()
            if tele.enabled:
                tele.gauge("fleet.n_sites", len(sites))
                tele.gauge(
                    "fleet.n_cohorts", sum(len(site.cohorts) for site in sites)
                )
                tele.gauge(
                    "fleet.n_devices",
                    sum(
                        entry.target_size
                        for site in sites
                        for entry in site.cohorts
                    ),
                )
            simulation = FleetSimulation(
                sites,
                policy,
                self.build_demand(),
                dispatch=self.build_dispatch(),
                telemetry=tele,
                audit=spec.execution.audit,
            )
            with tele.span("main_run"):
                report = simulation.run(spec.duration_days)
            self.last_audit = simulation.audit_report
            report = self._account_regret(report, simulation)
            with tele.span("economics"):
                site_costs = self._price_churn(sites, report)
            with tele.span("latency_probe"):
                latency = self._probe_latency(sites, policy, simulation.churn)
            with tele.span("charging_savings"):
                charging_savings = self._charging_savings(sites, report)
        return ScenarioResult(
            spec=spec,
            report=report,
            site_costs=site_costs,
            latency=latency,
            charging_savings=charging_savings,
            charging_mode=spec.charging.coupling,
            forecast_model=(
                spec.forecast.model if spec.charging.coupling == "dispatch" else "none"
            ),
            telemetry=(
                {**tele.counters, **tele.gauges} if tele.enabled else None
            ),
        )

    def _account_regret(
        self, report: FleetReport, simulation: FleetSimulation
    ) -> FleetReport:
        """Attach the hindsight baseline to a forecast run.

        The baseline is the same run — identical seeds, fleets, demand, and
        routing — dispatched by the lookahead planner with a *perfect*
        forecast, so the only difference is forecast skill.  Routing and
        churn never read the dispatch policy, so the baseline replays only
        the dispatch over the main run's own report
        (:meth:`~repro.fleet.scheduler.FleetSimulation.replay_avoided_g`).
        A perfect forecast is its own baseline (regret 0, no replay).
        """
        spec = self.spec
        if spec.charging.coupling != "dispatch" or spec.forecast.model == "none":
            return report
        if spec.forecast.model == "perfect":
            hindsight_avoided = report.carbon_avoided_g()
        else:
            # The span keeps its name: the benchmark's per-layer
            # ``hindsight.twin_s`` metric reads it.  Both replays cover the
            # same sites, run length and horizon, so the baseline plans
            # over the main replay's truth table.
            with self.telemetry.span("hindsight_twin"):
                hindsight_avoided = simulation.replay_avoided_g(
                    self._forecast_dispatch(PerfectForecast()),
                    truth=simulation.dispatch.truth,
                )
        return dataclasses.replace(report, hindsight_avoided_g=hindsight_avoided)

    def _cost_model(self, cohort: DeviceCohort) -> FleetCostModel:
        """A cost model for one cohort, priced from the scenario's economics."""
        economics = self.spec.economics
        return FleetCostModel(
            device=cohort.device,
            n_devices=cohort.target_size,
            load_profile=cohort.load_profile,
            electricity_usd_per_kwh=economics.electricity_usd_per_kwh,
            battery_replacement_usd=economics.battery_replacement_usd,
            battery_swap_labor_min=economics.battery_swap_labor_min,
            labor_usd_per_hour=economics.labor_usd_per_hour,
            intake_acquisition_usd=economics.intake_acquisition_usd,
        )

    def _price_churn(
        self, sites: List[FleetSite], report: FleetReport
    ) -> Dict[str, OwnershipCost]:
        """Per-site ownership + churn dollars, churn priced per device type.

        Each cohort's swap parts, swap labor, spare acquisition, and
        dispatched battery wear are priced with *that cohort's* device and
        pack (a Nexus 4 swap is not a Pixel 3A swap); purchases sum per
        cohort, and the site's realised wall energy and its peripherals bill
        are charged once.
        """
        economics = self.spec.economics
        if not economics.enabled:
            return {}
        costs: Dict[str, OwnershipCost] = {}
        cohort_summaries = report.cohort_summaries()
        energy_kwh = report.energy_kwh
        site_starts = report.site_starts
        for index, summary in enumerate(report.site_summaries()):
            site = sites[index]
            purchase_usd = 0.0
            maintenance_usd = 0.0
            for j, cohort in enumerate(site.cohorts, start=int(site_starts[index])):
                cohort_summary = cohort_summaries[j]
                model = self._cost_model(cohort)
                purchase_usd += cohort.target_size * cohort.device.purchase_price_usd
                maintenance_usd += model.churn_cost_usd(
                    cohort_summary.battery_swaps, cohort_summary.deployed
                )
                maintenance_usd += model.battery_wear_cost_usd(
                    cohort_summary.battery_discharge_kwh
                )
            costs[summary.name] = OwnershipCost(
                purchase_usd=purchase_usd,
                peripherals_usd=site.peripherals.total_cost_usd,
                energy_usd=float(energy_kwh[:, index].sum())
                * economics.electricity_usd_per_kwh,
                maintenance_usd=maintenance_usd,
            )
        return costs

    def _probe_latency(
        self, sites: List[FleetSite], policy, churn: ChurnTable
    ) -> Optional[LatencySummary]:
        """The latency probe over the fleet as ``churn`` left it."""
        routing = self.spec.routing
        if routing.latency_probe_s <= 0:
            return None
        # Python's left-to-right sum, site by site: the probe's demand, and
        # so every arrival time, depends on this exact float.
        counts = iter(churn.active.tolist())
        live_capacity = sum(
            sum(next(counts) * entry.requests_per_device_s for entry in site.cohorts)
            for site in sites
        )
        if live_capacity <= 0:
            return None
        summary, _ = simulate_latency_aware(
            sites,
            policy,
            demand_rps=routing.latency_demand_fraction * live_capacity,
            duration_s=routing.latency_probe_s,
            seed=self.spec.seed,
            queue_penalty_g=routing.queue_penalty_g,
            service_distribution=self.spec.demand.service_distribution,
            telemetry=self.telemetry,
            churn=churn,
        )
        return summary

    def _charging_savings(
        self, sites: List[FleetSite], report: FleetReport
    ) -> Dict[str, float]:
        """Per-site smart-charging savings in the coupling mode's currency.

        ``dispatch`` reads the *realised* savings out of the battery ledger
        the simulation just ran; ``estimate`` runs the detached per-device
        study through the same trace-level decision helper the dispatch
        engine uses (:func:`~repro.fleet.dispatch.estimate_fleet_savings`).
        """
        charging = self.spec.charging
        if charging.coupling == "dispatch":
            return report.realised_charging_savings()
        if charging.coupling == "estimate":
            return estimate_fleet_savings(
                sites, min_state_of_charge=charging.min_state_of_charge
            )
        return {}


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience wrapper: ``ScenarioRunner(spec).run()``."""
    return ScenarioRunner(spec).run()
