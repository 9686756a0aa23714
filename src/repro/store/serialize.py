"""Exact JSON round-trip for :class:`~repro.scenarios.runner.ScenarioResult`.

The durable experiment store promises that a result loaded from disk is
*bitwise-identical* to the freshly simulated one, so everything
downstream of a cache hit (regret figures, report tables, figure builders)
sees exactly the numbers it would have computed itself.  Two facts make that possible with plain JSON:

* Python's ``float`` repr is the shortest string that round-trips, and
  ``json`` uses it — so every float64 survives dump/load exactly.
* numpy arrays are encoded as ``{"__ndarray__": true, "dtype", "shape",
  "data"}`` with ``data`` the C-order ravel; dtype and shape restore the
  array byte-for-byte (integer dtypes are exact by construction, float64
  via the repr round-trip above).

Everything here is schema-versioned (``repro-result/1``) and keyed off the
dataclass *field lists*, so adding a field to :class:`FleetReport` or
:class:`ScenarioResult` extends the format without touching this module —
old entries simply decode with the new field's default.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

import numpy as np

from repro.economics.cost import OwnershipCost
from repro.fleet.reporting import FleetReport
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.metrics import LatencySummary

#: Schema tag stamped into every serialized result.
RESULT_SCHEMA = "repro-result/1"

_ARRAY_KEY = "__ndarray__"

#: FleetReport fields the constructor expects as tuples, not lists.
_TUPLE_FIELDS = {"site_names", "cohort_labels"}


class SerializationError(ValueError):
    """A payload does not decode to the result it claims to be."""


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode one numpy array as a JSON-safe mapping, exactly.

    ``data`` is the C-order ravel as native Python scalars; ``dtype`` and
    ``shape`` restore the original layout.  Exact for integer dtypes and
    for float64 (shortest-repr round-trip).
    """
    return {
        _ARRAY_KEY: True,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Invert :func:`encode_array`."""
    try:
        return np.array(payload["data"], dtype=np.dtype(payload["dtype"])).reshape(
            payload["shape"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"bad array payload: {error}") from None


def _encode_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def report_to_dict(report: FleetReport) -> Dict[str, Any]:
    """Encode a :class:`FleetReport` field-by-field (arrays exactly)."""
    return {
        field.name: _encode_value(getattr(report, field.name))
        for field in dataclasses.fields(FleetReport)
    }


def report_from_dict(payload: Dict[str, Any]) -> FleetReport:
    """Invert :func:`report_to_dict`.

    Unknown keys are rejected (they signal a schema from the future);
    missing keys fall back to the dataclass default, so entries written
    before a field existed still load.
    """
    known = {field.name for field in dataclasses.fields(FleetReport)}
    unknown = set(payload) - known
    if unknown:
        raise SerializationError(
            f"report payload has unknown fields: {sorted(unknown)}"
        )
    kwargs: Dict[str, Any] = {}
    for field in dataclasses.fields(FleetReport):
        if field.name not in payload:
            continue
        value = payload[field.name]
        if isinstance(value, dict) and value.get(_ARRAY_KEY):
            value = decode_array(value)
        elif field.name in _TUPLE_FIELDS and value is not None:
            value = tuple(value)
        kwargs[field.name] = value
    try:
        return FleetReport(**kwargs)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"report payload does not validate: {error}") from None


def result_to_dict(result) -> Dict[str, Any]:
    """Encode a :class:`~repro.scenarios.runner.ScenarioResult` as JSON-safe data."""
    return {
        "schema": RESULT_SCHEMA,
        "spec": result.spec.to_dict(),
        "report": report_to_dict(result.report),
        "site_costs": {
            name: dataclasses.asdict(cost)
            for name, cost in result.site_costs.items()
        },
        "latency": (
            dataclasses.asdict(result.latency) if result.latency is not None else None
        ),
        "charging_savings": dict(result.charging_savings),
        "charging_mode": result.charging_mode,
        "forecast_model": result.forecast_model,
        "telemetry": (
            dict(result.telemetry) if result.telemetry is not None else None
        ),
    }


def result_from_dict(payload: Dict[str, Any]):
    """Invert :func:`result_to_dict` (raises :class:`SerializationError`)."""
    from repro.scenarios.runner import ScenarioResult

    if not isinstance(payload, dict):
        raise SerializationError(
            f"result payload must be a mapping, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA:
        raise SerializationError(
            f"result schema must be {RESULT_SCHEMA!r}, got {schema!r}"
        )
    try:
        spec = ScenarioSpec.from_dict(payload["spec"])
        report = report_from_dict(payload["report"])
        site_costs = {
            name: OwnershipCost(**cost)
            for name, cost in payload["site_costs"].items()
        }
        latency: Optional[LatencySummary] = (
            LatencySummary(**payload["latency"])
            if payload.get("latency") is not None
            else None
        )
        return ScenarioResult(
            spec=spec,
            report=report,
            site_costs=site_costs,
            latency=latency,
            charging_savings=dict(payload["charging_savings"]),
            charging_mode=payload["charging_mode"],
            forecast_model=payload["forecast_model"],
            telemetry=(
                dict(payload["telemetry"])
                if payload.get("telemetry") is not None
                else None
            ),
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"result payload does not decode: {error}"
        ) from None
