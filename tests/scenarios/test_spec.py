"""ScenarioSpec serialization: round-trips, validation errors, overrides."""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    ChargingSpec,
    ChurnSpec,
    DemandSpec,
    DeviceMixSpec,
    EconomicsSpec,
    ExecutionSpec,
    ForecastSpec,
    RoutingSpec,
    ScenarioSpec,
    ScenarioValidationError,
    SiteSpec,
    TraceSpec,
    get_scenario,
    parse_override,
    scenario_names,
)


def small_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="test",
        sites=(SiteSpec(name="a"), SiteSpec(name="b")),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_every_preset_round_trips_through_dict(name):
    spec = get_scenario(name)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", scenario_names())
def test_every_preset_round_trips_through_json(name):
    spec = get_scenario(name)
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.to_json() == spec.to_json()


def test_to_dict_is_json_compatible_plain_data():
    data = get_scenario("two-site-asymmetric").to_dict()
    assert isinstance(data, dict)
    assert isinstance(data["sites"], list)
    json.dumps(data)  # raises on anything non-plain


@settings(max_examples=40, deadline=None)
@given(
    duration_days=st.integers(min_value=1, max_value=3650),
    seed=st.integers(min_value=0, max_value=2**31),
    count=st.integers(min_value=1, max_value=100_000),
    rps=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    daily_amplitude=st.floats(min_value=0.0, max_value=0.99),
    peak_hour=st.floats(min_value=0.0, max_value=23.9),
    intake=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e3)),
    max_swaps=st.integers(min_value=0, max_value=20),
    policy=st.sampled_from(["round-robin", "greedy-lowest-intensity", "marginal-cci"]),
    region=st.sampled_from(["caiso-like", "ercot-like", "hydro-heavy"]),
)
def test_random_specs_round_trip(
    duration_days, seed, count, rps, daily_amplitude, peak_hour, intake, max_swaps,
    policy, region,
):
    """dict and JSON round-trips are lossless across the spec's value space."""
    spec = ScenarioSpec(
        name="prop",
        sites=(
            SiteSpec(
                name="x",
                trace=TraceSpec(kind="regional", region=region),
                devices=DeviceMixSpec(count=count, requests_per_device_s=rps),
                churn=ChurnSpec(intake_per_day=intake, max_battery_swaps=max_swaps),
            ),
        ),
        routing=RoutingSpec(policy=policy),
        demand=DemandSpec(daily_amplitude=daily_amplitude, peak_hour=peak_hour),
        duration_days=duration_days,
        seed=seed,
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# Validation errors name the bad field
# ---------------------------------------------------------------------------


def test_unknown_top_level_field_is_named():
    data = small_spec().to_dict()
    data["banana"] = 1
    with pytest.raises(ScenarioValidationError, match="banana"):
        ScenarioSpec.from_dict(data)


def test_unknown_nested_field_names_dotted_path():
    data = small_spec().to_dict()
    data["sites"][1]["devices"]["frequency"] = 42
    with pytest.raises(ScenarioValidationError, match=r"sites\.1\.devices\.frequency"):
        ScenarioSpec.from_dict(data)


def test_wrong_type_names_dotted_path():
    data = small_spec().to_dict()
    data["sites"][0]["network_rtt_s"] = "fast"
    with pytest.raises(ScenarioValidationError, match=r"sites\.0\.network_rtt_s"):
        ScenarioSpec.from_dict(data)


def test_semantic_violation_names_location():
    data = small_spec().to_dict()
    data["sites"][0]["devices"]["count"] = -3
    with pytest.raises(ScenarioValidationError, match=r"sites\.0\.devices"):
        ScenarioSpec.from_dict(data)


def test_duplicate_site_names_rejected():
    with pytest.raises(ScenarioValidationError, match="unique"):
        small_spec(sites=(SiteSpec(name="a"), SiteSpec(name="a")))


def test_csv_kind_requires_path():
    with pytest.raises(ScenarioValidationError, match="csv_path"):
        TraceSpec(kind="csv")


def test_charging_coupling_validation_and_normalisation():
    with pytest.raises(ScenarioValidationError, match="coupling"):
        ChargingSpec(coupling="full")
    # coupling is the sole switch: "none" stays the decoupled baseline even
    # when the heuristic is named, so one override can disable the layer.
    assert ChargingSpec(policy="smart", coupling="none").coupling == "none"
    # Any live coupling implies the smart policy.
    assert ChargingSpec(coupling="dispatch").policy == "smart"
    assert ChargingSpec().coupling == "none"
    spec = ChargingSpec(policy="smart", coupling="dispatch")
    assert (spec.policy, spec.coupling) == ("smart", "dispatch")


def test_routing_wear_derate_validated():
    with pytest.raises(ScenarioValidationError, match="wear_derate"):
        RoutingSpec(wear_derate=1.5)
    with pytest.raises(ScenarioValidationError, match="wear_derate"):
        RoutingSpec(wear_derate=-0.1)
    assert RoutingSpec(wear_derate=0.4).wear_derate == 0.4


def test_unknown_trace_kind_rejected():
    with pytest.raises(ScenarioValidationError, match="kind"):
        TraceSpec(kind="astrology")


def test_invalid_json_reports_clearly():
    with pytest.raises(ScenarioValidationError, match="invalid scenario JSON"):
        ScenarioSpec.from_json("{not json")


# ---------------------------------------------------------------------------
# Overrides
# ---------------------------------------------------------------------------


def test_override_scalar_and_nested_and_indexed():
    spec = get_scenario("two-site-asymmetric").with_overrides(
        {
            "duration_days": 2,
            "routing.policy": "round-robin",
            "sites.1.devices.count": 7,
        }
    )
    assert spec.duration_days == 2
    assert spec.routing.policy == "round-robin"
    assert spec.sites[1].devices.count == 7
    # untouched fields survive
    assert spec.sites[0].devices.count == get_scenario("two-site-asymmetric").sites[0].devices.count


def test_override_does_not_mutate_original():
    original = get_scenario("two-site-asymmetric")
    before = original.to_dict()
    original.with_overrides({"duration_days": 1})
    assert original.to_dict() == before


def test_override_unknown_path_lists_available_fields():
    with pytest.raises(ScenarioValidationError, match="available"):
        small_spec().with_overrides({"routing.polcy": "round-robin"})


def test_retired_execution_keys_are_dropped_on_load():
    # Earlier releases serialised two execution knobs that no longer exist;
    # specs carrying them load as if the keys were absent.
    data = small_spec().to_dict()
    data["execution"] = {"audit": True, "block_days": 366, "shards": 4}
    spec = ScenarioSpec.from_dict(data)
    assert spec.execution.audit is True
    assert spec.to_dict()["execution"] == {"audit": True}
    assert spec.sha256() == small_spec().sha256()


def test_other_unknown_execution_keys_are_still_rejected():
    data = small_spec().to_dict()
    data["execution"] = {"audit": False, "turbo": 1}
    with pytest.raises(ScenarioValidationError, match="execution.turbo"):
        ScenarioSpec.from_dict(data)
    with pytest.raises(ScenarioValidationError, match="available: audit"):
        small_spec().with_overrides({"execution.shards": 2})


def test_override_unknown_segment_fails():
    with pytest.raises(ScenarioValidationError, match="rooting"):
        small_spec().with_overrides({"rooting.policy": "round-robin"})


def test_override_index_out_of_range():
    with pytest.raises(ScenarioValidationError, match="out of range"):
        small_spec().with_overrides({"sites.5.devices.count": 1})


def test_override_bad_value_is_validated():
    with pytest.raises(ScenarioValidationError, match="duration_days"):
        small_spec().with_overrides({"duration_days": -1})


@pytest.mark.parametrize(
    "path, raw",
    [
        ("churn.annual_failure_rate", "NaN"),
        ("churn.intake_per_day", "Infinity"),
        ("economics.electricity_usd_per_kwh", "NaN"),
        ("sites.0.network_rtt_s", "-Infinity"),
    ],
)
def test_override_non_finite_float_is_rejected(path, raw):
    key, value = parse_override(f"{path}={raw}")
    with pytest.raises(ScenarioValidationError, match="must be a finite number"):
        small_spec().with_overrides({key: value})


def test_non_finite_float_in_dict_is_rejected():
    data = small_spec().to_dict()
    data["sites"][0]["network_rtt_s"] = float("nan")
    with pytest.raises(ScenarioValidationError, match=r"sites\.0\.network_rtt_s"):
        ScenarioSpec.from_dict(data)


SPEC_CLASSES = (
    TraceSpec,
    DeviceMixSpec,
    ChurnSpec,
    SiteSpec,
    DemandSpec,
    RoutingSpec,
    ChargingSpec,
    ForecastSpec,
    EconomicsSpec,
    ExecutionSpec,
    ScenarioSpec,
)

#: Constructor arguments a spec class cannot default.
REQUIRED_ARGS = {SiteSpec: {"name": "a"}}


def _float_fields():
    """``(spec class, field name)`` for every float (or optional float) field."""
    pairs = []
    for cls in SPEC_CLASSES:
        hints = typing.get_type_hints(cls)
        for spec_field in dataclasses.fields(cls):
            hint = hints[spec_field.name]
            if hint is float or hint == typing.Optional[float]:
                pairs.append((cls, spec_field.name))
    return pairs


FLOAT_FIELDS = _float_fields()


def test_float_fields_cover_every_spec_with_floats():
    covered = {cls for cls, _ in FLOAT_FIELDS}
    assert covered == set(SPEC_CLASSES) - {ExecutionSpec, ScenarioSpec}
    assert (DemandSpec, "mean_rps") in FLOAT_FIELDS
    assert (RoutingSpec, "latency_probe_s") in FLOAT_FIELDS


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS]
)
def test_direct_construction_rejects_non_finite_floats(cls, name, value):
    """A spec built directly refuses what ``from_dict`` refuses, so it can
    never be run, hashed and stored and then fail to decode."""
    with pytest.raises(ScenarioValidationError, match=f"{name} must be a finite"):
        cls(**REQUIRED_ARGS.get(cls, {}), **{name: value})


def test_parse_override_types():
    assert parse_override("duration_days=2") == ("duration_days", 2)
    assert parse_override("demand.mean_rps=12.5") == ("demand.mean_rps", 12.5)
    assert parse_override("routing.policy=round-robin") == ("routing.policy", "round-robin")
    assert parse_override("churn.swap_batteries=false") == ("churn.swap_batteries", False)
    assert parse_override("demand.mean_rps=null") == ("demand.mean_rps", None)


def test_parse_override_requires_equals():
    with pytest.raises(ScenarioValidationError, match="dotted.path=value"):
        parse_override("duration_days")


def test_spec_defaults_mirror_subsystem_defaults():
    """Spec-layer defaults are references to the subsystem defaults, not copies."""
    from repro.economics.cost import FleetCostModel
    from repro.fleet.population import FailureModel, ReplacementPolicy
    from repro.fleet.scheduler import DiurnalDemand
    from repro.fleet.sites import DEFAULT_REQUESTS_PER_DEVICE_S

    assert DeviceMixSpec().requests_per_device_s == DEFAULT_REQUESTS_PER_DEVICE_S
    assert ChurnSpec().annual_failure_rate == FailureModel.annual_rate
    assert ChurnSpec().max_battery_swaps == ReplacementPolicy.max_battery_swaps
    assert DemandSpec().daily_amplitude == DiurnalDemand.daily_amplitude
    from repro.scenarios import EconomicsSpec

    assert EconomicsSpec().battery_swap_labor_min == FleetCostModel.battery_swap_labor_min


class TestServiceDistributionField:
    def test_default_is_deterministic(self):
        from repro.scenarios import DemandSpec

        assert DemandSpec().service_distribution == "deterministic"

    def test_named_distributions_validate(self):
        from repro.scenarios import SERVICE_DISTRIBUTIONS, DemandSpec

        for name in SERVICE_DISTRIBUTIONS:
            assert DemandSpec(service_distribution=name).service_distribution == name

    def test_unknown_distribution_rejected(self):
        from repro.scenarios import DemandSpec, ScenarioValidationError

        with pytest.raises(ScenarioValidationError, match="service_distribution"):
            DemandSpec(service_distribution="pareto")


class TestSpecHashCanonicalization:
    """Semantically identical specs must hash identically.

    The hash content-addresses the experiment store and dedupes sweep
    cells, so any representational wobble — dict key order, defaults
    restated vs omitted, ints standing in for floats — would silently
    fork cache entries and re-simulate work that is already stored.
    """

    def test_dict_key_order_is_irrelevant(self):
        def reversed_keys(value):
            if isinstance(value, dict):
                return {
                    key: reversed_keys(value[key]) for key in reversed(list(value))
                }
            if isinstance(value, list):
                return [reversed_keys(item) for item in value]
            return value

        spec = get_scenario("carbon-buffer")
        shuffled = ScenarioSpec.from_dict(reversed_keys(spec.to_dict()))
        assert shuffled.sha256() == spec.sha256()

    def test_omitted_defaults_hash_like_explicit_defaults(self):
        base = small_spec()
        explicit = small_spec(
            demand=DemandSpec(),
            routing=RoutingSpec(),
            charging=ChargingSpec(),
            duration_days=ScenarioSpec.duration_days,
            seed=ScenarioSpec.seed,
        )
        assert explicit.sha256() == base.sha256()

    def test_override_restating_a_default_hashes_identically(self):
        spec = get_scenario("carbon-buffer")
        restated = spec.with_overrides({"seed": spec.seed})
        assert restated.sha256() == spec.sha256()
        restated_float = spec.with_overrides(
            {"demand.fraction_of_capacity": spec.demand.fraction_of_capacity}
        )
        assert restated_float.sha256() == spec.sha256()

    def test_int_for_float_field_hashes_like_the_float(self):
        # Dataclasses accept an int where a float is declared; JSON would
        # spell them differently (1 vs 1.0) without canonicalization.
        with_int = small_spec(demand=DemandSpec(fraction_of_capacity=1))
        with_float = small_spec(demand=DemandSpec(fraction_of_capacity=1.0))
        assert with_int.sha256() == with_float.sha256()

    def test_hash_round_trips_through_dict_and_json(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(spec.to_dict()).sha256() == spec.sha256()
            assert ScenarioSpec.from_json(spec.to_json()).sha256() == spec.sha256()

    def test_different_specs_hash_differently(self):
        spec = get_scenario("carbon-buffer")
        assert spec.with_overrides({"seed": spec.seed + 1}).sha256() != spec.sha256()


class TestChurnSamplerField:
    def test_default_is_device(self):
        assert ChurnSpec().sampler == "device"
        for name in scenario_names():
            for site in get_scenario(name).sites:
                assert site.churn.sampler == "device"

    def test_bucket_round_trips_through_dict_and_json(self):
        spec = small_spec(
            sites=(
                SiteSpec(name="a", churn=ChurnSpec(sampler="bucket")),
                SiteSpec(name="b"),
            )
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.sites[0].churn.sampler == "bucket"
        assert rebuilt.sites[1].churn.sampler == "device"
        assert rebuilt.sha256() == spec.sha256()

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ScenarioValidationError, match="sampler"):
            ChurnSpec(sampler="per-atom")

    def test_sampler_is_part_of_the_spec_hash(self):
        # Unlike the ExecutionSpec knobs, the churn engine changes the RNG
        # stream, so two specs differing only in sampler must hash apart.
        spec = get_scenario("carbon-buffer")
        bucket = spec.with_overrides({"churn.sampler": "bucket"})
        assert bucket.sha256() != spec.sha256()
        execution_only = spec.with_overrides({"execution.audit": True})
        assert execution_only.sha256() == spec.sha256()

    def test_top_level_churn_override_broadcasts_to_every_site(self):
        spec = get_scenario("two-site-asymmetric")
        bucket = spec.with_overrides({"churn.sampler": "bucket"})
        assert all(site.churn.sampler == "bucket" for site in bucket.sites)
        # Other churn fields broadcast the same way...
        swaps = spec.with_overrides({"churn.max_battery_swaps": 3})
        assert all(site.churn.max_battery_swaps == 3 for site in swaps.sites)
        # ...while per-site paths still target one site.
        one = spec.with_overrides({"sites.1.churn.sampler": "bucket"})
        assert one.sites[0].churn.sampler == "device"
        assert one.sites[1].churn.sampler == "bucket"
