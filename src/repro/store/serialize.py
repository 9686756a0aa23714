"""Exact JSON round-trip for :class:`~repro.scenarios.runner.ScenarioResult`.

The durable experiment store promises that a result loaded from disk is
*bitwise-identical* to the freshly simulated one, so everything
downstream of a cache hit (regret figures, report tables, figure builders)
sees exactly the numbers it would have computed itself.  Numpy arrays are
therefore stored as raw bytes, ``{"__ndarray__": true, "dtype", "shape",
"data"}`` with ``data`` the base64 of the little-endian C-order buffer:
exact by construction, and smaller and far faster to encode and decode
than decimal text.  Entries come from outside the program, so decoding
checks every key before it trusts the bytes.

Everything here is schema-versioned (``repro-result/2``) and keyed off the
dataclass *field lists*, so adding a field to :class:`FleetReport` or
:class:`ScenarioResult` extends the format without touching this module.
A report payload must carry every series :class:`FleetReport` stores (its
site series are views of the stored pack series and are not written);
only fields with a default (``step_s``, ``hindsight_avoided_g``, the clip
counters) may be absent.
"""

from __future__ import annotations

import base64
import dataclasses
import math
from typing import Any, Dict, Optional

import numpy as np

from repro.economics.cost import OwnershipCost
from repro.fleet.reporting import FleetReport
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.metrics import LatencySummary

#: Schema tag stamped into every serialized result.
RESULT_SCHEMA = "repro-result/2"

_ARRAY_KEY = "__ndarray__"

#: The array dtypes a payload may carry: little-endian float64 and int64.
_ARRAY_DTYPES = ("<f8", "<i8")

#: FleetReport fields the constructor expects as tuples, not lists.
_TUPLE_FIELDS = {"site_names", "cohort_labels"}


class SerializationError(ValueError):
    """A payload does not decode to the result it claims to be."""


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode one float64 or int64 numpy array as a JSON-safe mapping, exactly.

    ``data`` is the base64 of the little-endian C-order bytes; ``dtype``
    and ``shape`` restore the original layout.
    """
    little = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
    if little.dtype.str not in _ARRAY_DTYPES:
        raise SerializationError(
            f"cannot encode a {array.dtype} array; expected one of "
            f"{', '.join(_ARRAY_DTYPES)}"
        )
    return {
        _ARRAY_KEY: True,
        "dtype": little.dtype.str,
        "shape": list(little.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Invert :func:`encode_array`; return a writable array.

    Raises :class:`SerializationError` on a dtype :func:`encode_array`
    never writes, a malformed shape, bad base64, or a byte count the dtype
    and shape do not call for.
    """
    try:
        dtype, shape, data = payload["dtype"], payload["shape"], payload["data"]
    except (KeyError, TypeError) as error:
        raise SerializationError(f"bad array payload: {error!r}") from None
    if dtype not in _ARRAY_DTYPES:
        raise SerializationError(
            f"array dtype must be one of {', '.join(_ARRAY_DTYPES)}, got {dtype!r}"
        )
    if not isinstance(shape, list) or any(
        type(size) is not int or size < 0 for size in shape
    ):
        raise SerializationError(
            f"array shape must be a list of non-negative integers, got {shape!r}"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"array data is not base64: {error}") from None
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise SerializationError(
            f"array data holds {len(raw)} bytes; a {dtype} array of shape "
            f"{shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


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

    Unknown keys are rejected (they signal a schema from the future), and
    so is a payload that lacks a series: every report carries every series,
    so a missing one means a truncated or hand-edited entry, never an old
    one to fill with a default.  Fields with a default may be absent.
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
