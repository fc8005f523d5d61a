"""A minimal JSON-schema validator for the telemetry export formats.

Dependency-free subset of JSON Schema: ``type`` (with the usual scalar
and container names), ``required``, ``properties``, ``items``, ``enum``
and nullability via a list of types.  That is enough to pin down the two
documents the observability layer exchanges with the outside world:

- :data:`CHROME_TRACE_SCHEMA` — the Chrome trace-event document produced
  by :meth:`repro.obs.tracer.SpanTracer.to_chrome_trace`;
- :data:`ARTIFACT_SCHEMA` — the :class:`~repro.obs.artifact.RunTelemetry`
  run artifact;
- :data:`FLIGHT_RECORDER_SCHEMA` — the post-mortem dump produced by
  :meth:`repro.obs.recorder.FlightRecorder.dump`.

The validators return a list of human-readable errors (empty = valid);
the ``validate_*`` wrappers raise :class:`SchemaError` instead, so tests
and the CLI can gate on them.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..core.errors import ReproError

__all__ = [
    "ARTIFACT_SCHEMA",
    "CHROME_TRACE_SCHEMA",
    "FLIGHT_RECORDER_SCHEMA",
    "SchemaError",
    "validate",
    "validate_artifact",
    "validate_chrome_trace",
    "validate_flight_dump",
]


class SchemaError(ReproError, ValueError):
    """A document does not conform to its schema."""


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(instance: Any, schema: Mapping[str, Any], path: str = "$") -> list[str]:
    """Validate ``instance`` against ``schema``; returns error strings."""
    errors: list[str] = []

    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, (list, tuple)) else (expected,)
        unknown = [t for t in types if t not in _TYPE_CHECKS]
        if unknown:
            raise SchemaError(f"schema error at {path}: unknown type(s) {unknown}")
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            errors.append(f"{path}: expected {' or '.join(types)}, got {type(instance).__name__}")
            return errors  # structure is wrong; deeper checks would mislead

    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        errors.append(f"{path}: {instance!r} not one of {list(enum)}")

    if isinstance(instance, Mapping):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required property {key!r}")
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in instance:
                errors.extend(validate(instance[key], subschema, f"{path}.{key}"))

    if isinstance(instance, (list, tuple)):
        items = schema.get("items")
        if items is not None:
            for k, element in enumerate(instance):
                errors.extend(validate(element, items, f"{path}[{k}]"))

    return errors


#: One Chrome trace event as emitted by ``SpanTracer.to_chrome_trace``.
_TRACE_EVENT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "ph", "ts", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "ph": {"type": "string", "enum": ["X", "i", "B", "E"]},
        "ts": {"type": "number"},
        "dur": {"type": "number"},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "cat": {"type": "string"},
        "s": {"type": "string", "enum": ["t", "p", "g"]},
        "args": {"type": "object"},
    },
}

CHROME_TRACE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {"type": "array", "items": _TRACE_EVENT_SCHEMA},
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
    },
}

_METRIC_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "type", "samples"],
    "properties": {
        "name": {"type": "string"},
        "type": {"type": "string", "enum": ["counter", "gauge", "histogram"]},
        "help": {"type": "string"},
        "buckets": {"type": "array", "items": {"type": "number"}},
        "samples": {"type": "array", "items": {"type": "object"}},
    },
}

_SPAN_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "start", "kind"],
    "properties": {
        "name": {"type": "string"},
        "start": {"type": "number"},
        "end": {"type": ["number", "null"]},
        "cat": {"type": "string"},
        "tid": {"type": "integer"},
        "args": {"type": "object"},
        "kind": {"type": "string", "enum": ["span", "instant"]},
    },
}

_EVENT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["time", "name"],
    "properties": {
        "time": {"type": "number"},
        "name": {"type": "string"},
        "fields": {"type": "object"},
    },
}

_CAPTURE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["label", "metrics", "spans", "events"],
    "properties": {
        "label": {"type": "string"},
        "metrics": {
            "type": "object",
            "required": ["metrics"],
            "properties": {"metrics": {"type": "array", "items": _METRIC_SCHEMA}},
        },
        "spans": {"type": "array", "items": _SPAN_SCHEMA},
        "events": {"type": "array", "items": _EVENT_SCHEMA},
        "dropped": {"type": "object"},
        "results": {"type": "object"},
    },
}

ARTIFACT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["format", "version", "name", "captures"],
    "properties": {
        "format": {"type": "string", "enum": ["repro-run-telemetry"]},
        "version": {"type": "integer"},
        "name": {"type": "string"},
        "meta": {"type": "object"},
        "captures": {"type": "array", "items": _CAPTURE_SCHEMA},
    },
}


_FLIGHT_EVENT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["t", "kind"],
    "properties": {
        "t": {"type": "number"},
        "kind": {"type": "string"},
        "fields": {"type": "object"},
    },
}

_FLIGHT_COMPONENT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["component", "dropped", "events"],
    "properties": {
        "component": {"type": "string"},
        "dropped": {"type": "integer"},
        "events": {"type": "array", "items": _FLIGHT_EVENT_SCHEMA},
    },
}

FLIGHT_RECORDER_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["format", "version", "reason", "now", "components"],
    "properties": {
        "format": {"type": "string", "enum": ["repro-flight-recorder"]},
        "version": {"type": "integer"},
        "reason": {"type": "string"},
        "now": {"type": "number"},
        "capacity": {"type": "integer"},
        "components": {"type": "array", "items": _FLIGHT_COMPONENT_SCHEMA},
    },
}


def _raise_on_errors(errors: list[str], what: str) -> None:
    if errors:
        head = "; ".join(errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise SchemaError(f"invalid {what}: {head}{more}")


def validate_chrome_trace(document: Any) -> None:
    """Raise :class:`SchemaError` unless ``document`` is a valid Chrome trace."""
    _raise_on_errors(validate(document, CHROME_TRACE_SCHEMA), "chrome trace")


def validate_artifact(document: Any) -> None:
    """Raise :class:`SchemaError` unless ``document`` is a valid run artifact."""
    _raise_on_errors(validate(document, ARTIFACT_SCHEMA), "run-telemetry artifact")


def validate_flight_dump(document: Any) -> None:
    """Raise :class:`SchemaError` unless ``document`` is a flight-recorder dump."""
    _raise_on_errors(validate(document, FLIGHT_RECORDER_SCHEMA), "flight-recorder dump")
