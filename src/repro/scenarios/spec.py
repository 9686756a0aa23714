"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is a nested tree of frozen dataclasses describing a
complete fleet experiment — sites (device mix, grid-trace source, churn
policy), request demand, routing policy, charging policy, economics, horizon
and seed — with no live objects inside, so every scenario is *data*:

* :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict` and the JSON
  twins round-trip losslessly, and ``from_dict`` rejects unknown fields and
  ill-typed values with a :class:`ScenarioValidationError` naming the exact
  dotted path of the offending field;
* :meth:`ScenarioSpec.with_overrides` applies ``dotted.path=value`` overrides
  (list indices included, e.g. ``sites.0.devices.count``), which is what the
  CLI's ``--set`` flag feeds;
* the spec resolves against the live subsystems only inside
  :class:`~repro.scenarios.runner.ScenarioRunner`, so specs can be built,
  stored, diffed, and shipped without touching a simulator.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.devices.power import FULL_LOAD, IDLE, LIGHT_MEDIUM, LoadProfile
from repro.economics.cost import CALIFORNIA_ELECTRICITY_USD_PER_KWH, FleetCostModel
from repro.fleet.population import (
    CHURN_SAMPLERS,
    FailureModel,
    IntakeStream,
    ReplacementPolicy,
)
from repro.fleet.scheduler import SERVICE_DISTRIBUTIONS, DiurnalDemand
from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S, REGIONAL_GENERATORS
from repro.forecast.models import FORECAST_MODELS

#: Grid-trace source kinds a :class:`TraceSpec` may name.
TRACE_KINDS = ("regional", "csv", "constant")

#: Charging-policy names a :class:`ChargingSpec` may name.
CHARGING_POLICIES = ("none", "smart")

#: How the charging layer couples into the fleet simulation.
CHARGING_COUPLINGS = ("none", "estimate", "dispatch")

#: Forecast-model names a :class:`ForecastSpec` may name (``"none"`` disables
#: forecasting; the rest resolve through
#: :func:`~repro.forecast.models.forecast_model_by_name`, so the two
#: registries can never drift).
FORECAST_MODEL_NAMES = ("none",) + tuple(sorted(FORECAST_MODELS))

# SERVICE_DISTRIBUTIONS (imported above) is re-exported here: the scheduler
# defines the probe's distributions, spec validation just names them.

#: Name -> :class:`~repro.devices.power.LoadProfile` for every profile a spec
#: may name.  The single source of truth: validation (here) and resolution
#: (the runner) both read it, so the two can never drift.
LOAD_PROFILE_REGISTRY: Dict[str, LoadProfile] = {
    profile.name: profile for profile in (LIGHT_MEDIUM, FULL_LOAD, IDLE)
}

#: Load-profile names resolvable by the runner.
LOAD_PROFILES = tuple(LOAD_PROFILE_REGISTRY)


class ScenarioValidationError(ValueError):
    """A scenario spec is malformed; the message names the offending field."""


def _require_finite(spec: Any) -> None:
    """Refuse a NaN or infinite value in any field of a spec.

    :meth:`ScenarioSpec.from_dict` refuses them first, naming the dotted
    path; this catches a spec built directly, which would otherwise run,
    hash and store, and then fail to decode.
    """
    for spec_field in dataclasses.fields(spec):
        value = getattr(spec, spec_field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioValidationError(
                f"{spec_field.name} must be a finite number, got {value!r}"
            )


# ---------------------------------------------------------------------------
# Leaf specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Where a site's carbon-intensity time series comes from.

    ``kind`` selects the source: ``"regional"`` generates ``n_days`` from
    one of the synthetic regional presets (:data:`~repro.fleet.sites.REGIONAL_GENERATORS`);
    ``"csv"`` loads a measured export via
    :meth:`~repro.grid.traces.GridTrace.from_csv`; ``"constant"`` builds a
    flat trace at ``intensity_g_per_kwh``.  Long scenarios wrap the trace
    end-to-end, so a month of data serves a simulated year.

    A relative ``csv_path`` that does not exist in the working directory is
    resolved against the package's bundled data directory
    (:data:`~repro.grid.traces.DATA_DIR`), so specs referencing bundled
    samples (``csv_path="caiso_sample.csv"``) stay portable when serialized
    and shipped to another machine.
    """

    kind: str = "regional"
    region: str = "caiso-like"
    n_days: int = 30
    csv_path: Optional[str] = None
    time_col: str = "timestamp"
    intensity_col: str = "intensity_gco2_per_kwh"
    intensity_g_per_kwh: float = 250.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.kind not in TRACE_KINDS:
            raise ScenarioValidationError(
                f"kind must be one of {', '.join(TRACE_KINDS)}; got {self.kind!r}"
            )
        if self.kind == "regional" and self.region not in REGIONAL_GENERATORS:
            known = ", ".join(sorted(REGIONAL_GENERATORS))
            raise ScenarioValidationError(
                f"region must be one of {known}; got {self.region!r}"
            )
        if self.kind == "csv" and not self.csv_path:
            raise ScenarioValidationError("csv_path is required when kind='csv'")
        if self.n_days <= 0:
            raise ScenarioValidationError("n_days must be positive")
        if self.intensity_g_per_kwh < 0:
            raise ScenarioValidationError("intensity_g_per_kwh must be non-negative")


@dataclass(frozen=True)
class DeviceMixSpec:
    """The device population one site deploys."""

    device: str = "Pixel 3A"
    count: int = 100
    load_profile: str = LIGHT_MEDIUM.name
    # Defaults below mirror the subsystem defaults by reference (dataclass
    # defaults are class attributes), so spec-driven and direct-model runs
    # can never drift apart.
    requests_per_device_s: float = DEFAULT_REQUESTS_PER_DEVICE_S

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.count <= 0:
            raise ScenarioValidationError("count must be positive")
        if self.load_profile not in LOAD_PROFILES:
            raise ScenarioValidationError(
                f"load_profile must be one of {', '.join(LOAD_PROFILES)}; "
                f"got {self.load_profile!r}"
            )
        if self.requests_per_device_s <= 0:
            raise ScenarioValidationError("requests_per_device_s must be positive")


@dataclass(frozen=True)
class ChurnSpec:
    """Population-churn policy: failures, battery swaps, intake.

    ``intake_per_day=None`` sizes the intake stream at 1.25x the analytic
    steady-state replacement rate
    (:func:`~repro.fleet.sites.default_intake_stream`); an explicit rate
    models supply-constrained or oversupplied junkyards.
    ``initial_spares=None`` likewise defaults to a small pool proportional
    to the site size.

    ``sampler`` selects the cohort's failure draw: ``"device"`` (one
    uniform per device, the reference) or ``"bucket"`` (one binomial draw
    per deploy-day bucket — distributionally equivalent, O(days) instead
    of O(devices) per step).  The choice changes the RNG stream, so unlike
    the :class:`ExecutionSpec` knobs it is part of the spec hash.
    """

    swap_batteries: bool = ReplacementPolicy.swap_batteries
    max_battery_swaps: int = ReplacementPolicy.max_battery_swaps
    annual_failure_rate: float = FailureModel.annual_rate
    age_acceleration_per_year: float = FailureModel.age_acceleration_per_year
    intake_per_day: Optional[float] = None
    initial_spares: Optional[int] = None
    poisson_intake: bool = IntakeStream.poisson
    sampler: str = "device"

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.sampler not in CHURN_SAMPLERS:
            raise ScenarioValidationError(
                f"sampler must be one of {', '.join(CHURN_SAMPLERS)}; "
                f"got {self.sampler!r}"
            )
        if self.max_battery_swaps < 0:
            raise ScenarioValidationError("max_battery_swaps must be non-negative")
        if self.annual_failure_rate < 0 or self.age_acceleration_per_year < 0:
            raise ScenarioValidationError("failure rates must be non-negative")
        if self.intake_per_day is not None and self.intake_per_day < 0:
            raise ScenarioValidationError("intake_per_day must be non-negative")
        if self.initial_spares is not None and self.initial_spares < 0:
            raise ScenarioValidationError("initial_spares must be non-negative")


@dataclass(frozen=True)
class SiteSpec:
    """One cloudlet location: its grid, device cohorts, churn, and network.

    A site deploys one or more typed device cohorts.  The historical single
    ``devices`` field stays the one-cohort spelling; a *mixed* site lists
    its per-type populations in ``cohorts`` instead (one
    :class:`DeviceMixSpec` each — a junkyard rack of Pixel 3As next to
    Nexus 4s is one site, not two co-located ones).  When ``cohorts`` is
    non-empty it is the complete device description and ``devices`` must
    stay at its default, so an override of it cannot pass unused; the
    ``churn`` policy applies to every cohort (each with its own
    independently seeded stream), with per-cohort target sizes from the
    cohort counts.  Dotted-path overrides reach into the list as
    ``sites.0.cohorts.1.count``.
    """

    name: str
    trace: TraceSpec = field(default_factory=TraceSpec)
    devices: DeviceMixSpec = field(default_factory=DeviceMixSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    network_rtt_s: float = 0.010
    cohorts: Tuple[DeviceMixSpec, ...] = ()

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.name:
            raise ScenarioValidationError("name must be non-empty")
        if self.network_rtt_s < 0:
            raise ScenarioValidationError("network_rtt_s must be non-negative")
        if not isinstance(self.cohorts, tuple):
            object.__setattr__(self, "cohorts", tuple(self.cohorts))
        if self.cohorts and self.devices != DeviceMixSpec():
            raise ScenarioValidationError(
                "devices must be left at its default when cohorts are given; "
                "describe every device type in cohorts"
            )

    @property
    def device_mixes(self) -> Tuple[DeviceMixSpec, ...]:
        """The site's device cohorts: ``cohorts`` when given, else ``devices``."""
        return self.cohorts if self.cohorts else (self.devices,)

    @property
    def total_devices(self) -> int:
        """Target device count summed across the site's cohorts."""
        return sum(mix.count for mix in self.device_mixes)


@dataclass(frozen=True)
class DemandSpec:
    """Fleet-wide request demand (a diurnal + weekly deterministic model).

    ``mean_rps`` pins the mean demand explicitly; when ``None`` the runner
    derives it as ``fraction_of_capacity`` times the fleet's nominal capacity
    (sum over sites of ``count * requests_per_device_s``).

    ``service_distribution`` selects how the latency probe draws each
    request's service time: ``"deterministic"`` (the default, exactly
    ``1/requests_per_device_s``), ``"exponential"``, or ``"lognormal"`` —
    the stochastic shapes keep the same mean, with the lognormal's spread
    taken from the microservice simulator's calibrated per-request
    variability (:data:`repro.microservices.calibration.SERVICE_TIME_SIGMA`).
    """

    mean_rps: Optional[float] = None
    fraction_of_capacity: float = 0.45
    daily_amplitude: float = DiurnalDemand.daily_amplitude
    peak_hour: float = DiurnalDemand.peak_hour
    weekly_amplitude: float = DiurnalDemand.weekly_amplitude
    service_distribution: str = "deterministic"

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mean_rps is not None and self.mean_rps <= 0:
            raise ScenarioValidationError("mean_rps must be positive")
        if not 0.0 < self.fraction_of_capacity <= 1.5:
            raise ScenarioValidationError("fraction_of_capacity must be in (0, 1.5]")
        if not 0.0 <= self.daily_amplitude < 1.0:
            raise ScenarioValidationError("daily_amplitude must be within [0, 1)")
        if not 0.0 <= self.weekly_amplitude < 1.0:
            raise ScenarioValidationError("weekly_amplitude must be within [0, 1)")
        if not 0.0 <= self.peak_hour < 24.0:
            raise ScenarioValidationError("peak_hour must be within [0, 24)")
        if self.service_distribution not in SERVICE_DISTRIBUTIONS:
            raise ScenarioValidationError(
                f"service_distribution must be one of "
                f"{', '.join(SERVICE_DISTRIBUTIONS)}; "
                f"got {self.service_distribution!r}"
            )


@dataclass(frozen=True)
class RoutingSpec:
    """Request-routing policy plus the optional latency probe.

    ``latency_probe_s`` seconds of per-request FIFO queueing run after the
    fluid simulation (0 disables the probe);
    ``latency_demand_fraction`` scales the probe's Poisson arrival rate
    relative to the fleet's live capacity.
    """

    policy: str = "marginal-cci"
    latency_probe_s: float = 5.0
    latency_demand_fraction: float = 0.5
    queue_penalty_g: float = 5e-6
    #: Battery-aware load shedding: scale each site's effective capacity by
    #: ``1 - wear_derate * mean_battery_wear`` of its cohort (0 disables).
    wear_derate: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.policy:
            raise ScenarioValidationError("policy must be non-empty")
        if self.latency_probe_s < 0:
            raise ScenarioValidationError("latency_probe_s must be non-negative")
        if not 0.0 < self.latency_demand_fraction <= 1.5:
            raise ScenarioValidationError(
                "latency_demand_fraction must be in (0, 1.5]"
            )
        if self.queue_penalty_g < 0:
            raise ScenarioValidationError("queue_penalty_g must be non-negative")
        if not 0.0 <= self.wear_derate <= 1.0:
            raise ScenarioValidationError("wear_derate must be within [0, 1]")


@dataclass(frozen=True)
class ChargingSpec:
    """Smart-charging coupling: UPS-as-carbon-buffer, estimated or realised.

    ``coupling`` selects how the charging layer meets the fleet simulation:

    * ``"none"`` — batteries stay full; no charging study runs;
    * ``"estimate"`` — the paper's detached per-device study (threshold at
      the previous day's P-th intensity percentile) runs per site and the
      fractional savings are *reported* as headroom, not folded into the
      fleet ledger;
    * ``"dispatch"`` — the coupled energy-dispatch core: each site carries a
      battery state-of-charge ledger, clean hours charge the packs from idle
      headroom, dirty hours serve device load from the packs, and the
      reported savings are *realised* in the operational-carbon series.

    ``coupling`` is the sole switch — ``coupling="none"`` always means the
    decoupled baseline, even when ``policy="smart"`` names the heuristic, so
    ``--set charging.coupling=none`` alone disables the battery layer.  A
    live coupling with ``policy="none"`` is contradictory (a coupling needs
    a charging heuristic) and implies ``policy="smart"``.  ``policy`` names
    *which* heuristic the coupling applies; ``"smart"`` (the paper's
    percentile threshold) is currently the only live choice, so the field
    exists for forward compatibility with other
    :class:`~repro.charging.smart_charging.ChargingPolicy` heuristics.
    """

    policy: str = "none"
    min_state_of_charge: float = 0.25
    coupling: str = "none"

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.policy not in CHARGING_POLICIES:
            raise ScenarioValidationError(
                f"policy must be one of {', '.join(CHARGING_POLICIES)}; "
                f"got {self.policy!r}"
            )
        if self.coupling not in CHARGING_COUPLINGS:
            raise ScenarioValidationError(
                f"coupling must be one of {', '.join(CHARGING_COUPLINGS)}; "
                f"got {self.coupling!r}"
            )
        if not 0.0 <= self.min_state_of_charge < 1.0:
            raise ScenarioValidationError("min_state_of_charge must be within [0, 1)")
        if self.coupling != "none" and self.policy == "none":
            object.__setattr__(self, "policy", "smart")


@dataclass(frozen=True)
class ForecastSpec:
    """Carbon-intensity forecasting for the lookahead dispatch.

    ``model`` selects the forecaster feeding
    :class:`~repro.fleet.dispatch.ForecastDispatch` (see
    :mod:`repro.forecast.models`): ``"none"`` keeps the previous-day
    percentile heuristic (:class:`~repro.fleet.dispatch.CarbonBufferDispatch`),
    ``"perfect"`` the oracle, ``"persistence"`` yesterday-repeats,
    ``"noisy"`` the oracle degraded by multiplicative lognormal noise of
    ``noise_sigma`` (seeded from the scenario seed), and ``"csv"`` a
    measured day-ahead export read from ``csv_path`` (resolved against the
    bundled data directory when a bare filename, exactly like
    ``trace.csv_path``).  ``horizon_h`` is the lookahead window the planner
    ranks and ``refresh_h`` how often it re-plans (receding horizon); both
    in hours.

    A live forecast only acts through the coupled battery dispatch, so
    ``model != "none"`` requires ``charging.coupling == "dispatch"`` — the
    spec validation enforces the pairing rather than silently ignoring the
    forecast.
    """

    model: str = "none"
    horizon_h: int = 24
    noise_sigma: float = 0.0
    refresh_h: int = 24
    csv_path: Optional[str] = None
    time_col: str = "timestamp"
    intensity_col: str = "intensity_gco2_per_kwh"

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.model not in FORECAST_MODEL_NAMES:
            raise ScenarioValidationError(
                f"model must be one of {', '.join(FORECAST_MODEL_NAMES)}; "
                f"got {self.model!r}"
            )
        if self.model == "csv" and not self.csv_path:
            raise ScenarioValidationError("csv_path is required when model='csv'")
        if self.horizon_h < 1:
            raise ScenarioValidationError("horizon_h must be >= 1")
        if not 1 <= self.refresh_h <= self.horizon_h:
            raise ScenarioValidationError(
                f"refresh_h must be within [1, horizon_h={self.horizon_h}]"
            )
        if self.noise_sigma < 0:
            raise ScenarioValidationError("noise_sigma must be non-negative")


@dataclass(frozen=True)
class EconomicsSpec:
    """Dollar-cost model parameters (see :class:`~repro.economics.FleetCostModel`)."""

    enabled: bool = True
    electricity_usd_per_kwh: float = CALIFORNIA_ELECTRICITY_USD_PER_KWH
    battery_replacement_usd: float = FleetCostModel.battery_replacement_usd
    battery_swap_labor_min: float = FleetCostModel.battery_swap_labor_min
    labor_usd_per_hour: float = FleetCostModel.labor_usd_per_hour
    intake_acquisition_usd: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in (
            "electricity_usd_per_kwh",
            "battery_replacement_usd",
            "battery_swap_labor_min",
            "labor_usd_per_hour",
        ):
            if getattr(self, name) < 0:
                raise ScenarioValidationError(f"{name} must be non-negative")
        if self.intake_acquisition_usd is not None and self.intake_acquisition_usd < 0:
            raise ScenarioValidationError("intake_acquisition_usd must be non-negative")


@dataclass(frozen=True)
class ExecutionSpec:
    """How (not what) to simulate: observation knobs.

    ``audit`` turns on the post-run conservation-invariant checks of
    :mod:`repro.telemetry.observatory.audit` in
    :class:`~repro.fleet.scheduler.FleetSimulation`.  The audit only reads
    finished matrices, so results are bitwise-identical either way, which
    is why :meth:`ScenarioSpec.sha256` excludes this block: the same
    experiment run with or without the audit keys the same store entry.
    """

    audit: bool = False


#: ``execution`` keys of earlier releases (day batching and site-sharded
#: dispatch, both retired).  They never entered :meth:`ScenarioSpec.sha256`,
#: so :meth:`ScenarioSpec.from_dict` drops them and stored entries that
#: carry them stay loadable.
_RETIRED_EXECUTION_KEYS = ("block_days", "shards")


# ---------------------------------------------------------------------------
# The scenario spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable description of one fleet experiment."""

    name: str
    description: str = ""
    sites: Tuple[SiteSpec, ...] = ()
    routing: RoutingSpec = field(default_factory=RoutingSpec)
    demand: DemandSpec = field(default_factory=DemandSpec)
    charging: ChargingSpec = field(default_factory=ChargingSpec)
    forecast: ForecastSpec = field(default_factory=ForecastSpec)
    economics: EconomicsSpec = field(default_factory=EconomicsSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    duration_days: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioValidationError("name must be non-empty")
        if not self.sites:
            raise ScenarioValidationError("sites must list at least one site")
        if not isinstance(self.sites, tuple):
            object.__setattr__(self, "sites", tuple(self.sites))
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ScenarioValidationError(f"sites must have unique names, got {names}")
        if self.duration_days <= 0:
            raise ScenarioValidationError("duration_days must be positive")
        if self.forecast.model != "none" and self.charging.coupling != "dispatch":
            raise ScenarioValidationError(
                f"forecast.model={self.forecast.model!r} requires "
                "charging.coupling='dispatch' (a forecast only acts through "
                f"the battery dispatch); got {self.charging.coupling!r}"
            )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data (JSON-compatible) representation of the spec."""
        return _to_plain(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output, validating every field.

        The retired ``execution`` keys of earlier releases are dropped;
        any other unknown field is refused.
        """
        execution = data.get("execution") if isinstance(data, Mapping) else None
        if isinstance(execution, Mapping):
            data = {
                **data,
                "execution": {
                    key: value
                    for key, value in execution.items()
                    if key not in _RETIRED_EXECUTION_KEYS
                },
            }
        return _from_plain(cls, data, path="")

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def sha256(self) -> str:
        """The spec's canonical content hash (SHA-256 of its sorted JSON).

        Semantically identical specs hash identically regardless of how they
        were spelled: dict key order never matters (``to_json`` sorts keys),
        omitted fields equal explicitly restated defaults (both resolve to
        the same dataclass value), and numeric fields are canonicalized by
        declared type (``_to_plain`` emits ``1.0``, not ``1``, for a float
        field), so a spec built with ``count=10, fraction_of_capacity=1``
        keys the same store entry as its JSON round-trip.  This is the key
        for sweep-cell deduplication and the durable experiment store.

        The ``execution`` block is excluded: its knobs change how a run is
        observed, never what it computes (bitwise, locked by tests), so the
        same experiment hashes identically with or without them and store
        entries stay shareable across them.
        """
        payload = self.to_dict()
        payload.pop("execution", None)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Deserialize from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioValidationError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(data)

    # -- overrides ---------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Return a copy with dotted-path overrides applied.

        ``overrides`` maps dotted paths to values, list indices included::

            spec.with_overrides({
                "duration_days": 2,
                "routing.policy": "round-robin",
                "sites.0.devices.count": 50,
            })

        Unknown paths raise :class:`ScenarioValidationError` listing the
        fields available at the failing segment.

        ``churn`` is per-site, but a churn policy usually applies fleet-wide:
        a top-level ``churn.<field>`` (or whole-``churn``) path broadcasts to
        every site, so ``--set churn.sampler=bucket`` flips the failure draw on all
        of them without spelling each ``sites.N.churn.sampler`` out.
        """
        data = self.to_dict()
        for dotted, value in overrides.items():
            if dotted == "churn" or dotted.startswith("churn."):
                suffix = dotted[len("churn"):]
                for index in range(len(data["sites"])):
                    _set_dotted(data, f"sites.{index}.churn{suffix}", value)
                continue
            _set_dotted(data, dotted, value)
        return ScenarioSpec.from_dict(data)


def decode_override_value(raw: str) -> Any:
    """Decode one CLI override value: JSON when possible, bare string otherwise.

    The single decode policy for every ``--set`` surface (``run`` and
    ``sweep``), so ``2`` yields an int, ``true`` a bool, and
    ``round-robin`` a string everywhere.
    """
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_override(text: str) -> Tuple[str, Any]:
    """Parse one CLI ``key=value`` override into ``(dotted_path, value)``.

    The value is JSON-decoded when possible (numbers, booleans, ``null``,
    quoted strings, lists) and kept as a bare string otherwise, so
    ``--set duration_days=2`` yields an int and ``--set routing.policy=round-robin``
    a string.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ScenarioValidationError(
            f"override {text!r} is not of the form dotted.path=value"
        )
    return key, decode_override_value(raw)


# ---------------------------------------------------------------------------
# Generic dataclass <-> plain-data conversion
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> Dict[str, Any]:
    """``typing.get_type_hints(cls)``, resolved once per class (read-only):
    re-evaluating annotations dominated hashing many-site specs."""
    return typing.get_type_hints(cls)


def _to_plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        hints = _field_hints(type(value))
        return {
            spec_field.name: _canonical_scalar(
                _to_plain(getattr(value, spec_field.name)),
                hints.get(spec_field.name),
            )
            for spec_field in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_to_plain(item) for item in value]
    return value


def _canonical_scalar(value: Any, hint: Any) -> Any:
    """Coerce a plain value to its declared numeric type.

    A frozen dataclass accepts ``DemandSpec(fraction_of_capacity=1)`` (an
    int for a float field) without complaint, but ``json.dumps`` spells the
    two as ``1`` versus ``1.0`` — so semantically identical specs would
    serialize (and therefore hash) differently.  Canonicalizing here makes
    ``to_dict``/``to_json`` output depend only on the spec's *meaning*:
    every float-typed field (plain or ``Optional``) serializes as a float.
    """
    if typing.get_origin(hint) is Union:
        inner = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if value is None or not inner:
            return value
        hint = inner[0]
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _describe(path: str) -> str:
    return path if path else "scenario"


def _from_plain(cls: type, data: Any, path: str) -> Any:
    """Build dataclass ``cls`` from plain data, naming bad fields by path."""
    if not isinstance(data, Mapping):
        raise ScenarioValidationError(
            f"{_describe(path)} must be a mapping, got {type(data).__name__}"
        )
    hints = _field_hints(cls)
    known = {spec_field.name for spec_field in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ScenarioValidationError(
            f"unknown field {where!r}; expected one of: {', '.join(sorted(known))}"
        )
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        kwargs[key] = _convert(value, hints[key], where)
    try:
        return cls(**kwargs)
    except ScenarioValidationError as error:
        raise ScenarioValidationError(f"{_describe(path)}: {error}") from None
    except TypeError as error:
        raise ScenarioValidationError(f"{_describe(path)}: {error}") from None


def _convert(value: Any, hint: Any, path: str) -> Any:
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        if value is None:
            if type(None) in args:
                return None
            raise ScenarioValidationError(f"field {path!r} must not be null")
        inner = [arg for arg in args if arg is not type(None)]
        return _convert(value, inner[0], path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioValidationError(
                f"field {path!r} must be a list, got {type(value).__name__}"
            )
        element_hint = args[0] if args else Any
        return tuple(
            _convert(item, element_hint, f"{path}.{index}")
            for index, item in enumerate(value)
        )
    if dataclasses.is_dataclass(hint):
        return _from_plain(hint, value, path)
    if hint is bool:
        if not isinstance(value, bool):
            raise ScenarioValidationError(
                f"field {path!r} must be a boolean, got {value!r}"
            )
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioValidationError(
                f"field {path!r} must be an integer, got {value!r}"
            )
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioValidationError(
                f"field {path!r} must be a number, got {value!r}"
            )
        if not math.isfinite(value):
            raise ScenarioValidationError(
                f"field {path!r} must be a finite number, got {value!r}"
            )
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ScenarioValidationError(
                f"field {path!r} must be a string, got {value!r}"
            )
        return value
    return value


def _set_dotted(data: Any, dotted: str, value: Any) -> None:
    """Set ``data[a][b]...[z] = value`` following a dotted path with indices."""
    if not dotted:
        raise ScenarioValidationError("override path must be non-empty")
    parts = dotted.split(".")
    node = data
    walked = []
    for part in parts[:-1]:
        node = _step_into(node, part, walked, dotted)
        walked.append(part)
    leaf = parts[-1]
    if isinstance(node, dict):
        if leaf not in node:
            raise ScenarioValidationError(
                f"unknown override path {dotted!r}: no field {leaf!r} at "
                f"{'.'.join(walked) or 'top level'}; available: "
                f"{', '.join(sorted(node))}"
            )
        node[leaf] = value
    elif isinstance(node, list):
        index = _as_index(leaf, dotted, node)
        node[index] = value
    else:
        raise ScenarioValidationError(
            f"override path {dotted!r} descends into a scalar at {leaf!r}"
        )


def _step_into(node: Any, part: str, walked: list, dotted: str) -> Any:
    where = ".".join(walked) or "top level"
    if isinstance(node, dict):
        if part not in node:
            raise ScenarioValidationError(
                f"unknown override path {dotted!r}: segment {part!r} at {where}; "
                f"available: {', '.join(sorted(node))}"
            )
        return node[part]
    if isinstance(node, list):
        return node[_as_index(part, dotted, node)]
    raise ScenarioValidationError(
        f"override path {dotted!r}: segment {part!r} at {where} descends "
        "into a scalar"
    )


def _as_index(part: str, dotted: str, node: list) -> int:
    try:
        index = int(part)
    except ValueError:
        raise ScenarioValidationError(
            f"override path {dotted!r}: expected a list index, got {part!r}"
        ) from None
    if not -len(node) <= index < len(node):
        raise ScenarioValidationError(
            f"override path {dotted!r}: index {index} out of range for "
            f"a {len(node)}-element list"
        )
    return index
