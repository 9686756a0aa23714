"""Exact JSON round-trip of :class:`ScenarioResult` across every preset.

The experiment store substitutes a loaded result for a fresh simulation,
so the serializer must be *exact*: every report array bitwise-equal after
dump/load, every summary number identical, the spec hashing to the same
content address.  One parametrized test locks that across the whole
registry (every preset exercises a different slice of the result surface —
economics on/off, latency probe, dispatch ledgers, cohort series, regret
accounting).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.scenarios.runner import ScenarioResult
from repro.store import (
    RESULT_SCHEMA,
    SerializationError,
    decode_array,
    encode_array,
    report_from_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.telemetry import Telemetry

FAST = {"duration_days": 2}


def _assert_results_identical(first, second):
    assert second.spec == first.spec
    for field in dataclasses.fields(first.report):
        a = getattr(first.report, field.name)
        b = getattr(second.report, field.name)
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray), f"{field.name} lost its array-ness"
            assert a.dtype == b.dtype, f"{field.name} dtype changed"
            assert a.shape == b.shape, f"{field.name} shape changed"
            assert np.array_equal(a, b), f"{field.name} values differ"
        else:
            assert a == b, f"report field {field.name}: {a!r} != {b!r}"
    assert second.site_costs == first.site_costs
    assert second.latency == first.latency
    assert second.charging_savings == first.charging_savings
    assert second.charging_mode == first.charging_mode
    assert second.forecast_model == first.forecast_model
    assert second.telemetry == first.telemetry
    assert second.summary_dict() == first.summary_dict()


@pytest.mark.parametrize("name", scenario_names())
def test_round_trip_is_exact_for_every_preset(name):
    spec = get_scenario(name).with_overrides(FAST)
    result = ScenarioRunner(spec).run()

    # Through actual JSON text, not just dicts: the store writes strings.
    payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    restored = ScenarioResult.from_dict(payload)

    _assert_results_identical(result, restored)
    assert restored.spec.sha256() == result.spec.sha256()


def test_round_trip_keeps_telemetry_snapshot_and_regret():
    spec = get_scenario("forecast-buffer").with_overrides(
        {**FAST, "forecast.model": "noisy", "forecast.noise_sigma": 0.2}
    )
    result = ScenarioRunner(spec, telemetry=Telemetry()).run()
    assert result.telemetry is not None
    assert result.report.hindsight_avoided_g is not None

    restored = ScenarioResult.from_dict(result.to_dict())
    _assert_results_identical(result, restored)
    assert restored.regret_g == result.regret_g
    assert restored.raw_regret_g == result.raw_regret_g


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([], dtype=np.float64),
        np.array([0.1 + 0.2, 1e-300, 1e300, -0.0]),
        np.zeros((0, 3)),
    ],
)
def test_array_codec_preserves_dtype_shape_and_bits(array):
    out = decode_array(json.loads(json.dumps(encode_array(array))))
    assert out.dtype == array.dtype
    assert out.shape == array.shape
    assert out.tobytes() == array.tobytes()
    assert out.flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.bool_])
def test_array_codec_refuses_dtypes_it_cannot_decode(dtype):
    with pytest.raises(SerializationError, match="cannot encode"):
        encode_array(np.zeros(3, dtype=dtype))


def test_result_payload_schema_is_checked():
    spec = get_scenario("paper-baseline").with_overrides(FAST)
    payload = ScenarioRunner(spec).run().to_dict()
    assert payload["schema"] == RESULT_SCHEMA

    with pytest.raises(SerializationError, match="schema"):
        result_from_dict({**payload, "schema": "repro-result/999"})
    with pytest.raises(SerializationError):
        result_from_dict("not a mapping")
    truncated = dict(payload)
    del truncated["report"]
    with pytest.raises(SerializationError):
        result_from_dict(truncated)


def test_report_payload_rejects_unknown_fields():
    spec = get_scenario("paper-baseline").with_overrides(FAST)
    report_payload = report_to_dict(ScenarioRunner(spec).run().report)
    with pytest.raises(SerializationError, match="from_the_future"):
        report_from_dict({**report_payload, "from_the_future": 1})


def test_report_payload_lacking_a_series_is_refused():
    spec = get_scenario("paper-baseline").with_overrides(FAST)
    report_payload = report_to_dict(ScenarioRunner(spec).run().report)
    report_from_dict(report_payload)  # the whole payload loads
    truncated = dict(report_payload)
    del truncated["cohort_battery_kwh"]
    with pytest.raises(SerializationError, match="cohort_battery_kwh"):
        report_from_dict(truncated)
    with pytest.raises(SerializationError, match="cohort_battery_kwh"):
        report_from_dict({**report_payload, "cohort_battery_kwh": None})


def test_result_to_dict_matches_method():
    spec = get_scenario("paper-baseline").with_overrides(FAST)
    result = ScenarioRunner(spec).run()
    assert result.to_dict() == result_to_dict(result)
