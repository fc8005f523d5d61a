"""Unified observability: metrics, sim-clock spans and decision tracing.

``repro.obs`` is the dependency-free telemetry layer threaded through the
control plane (see docs/OBSERVABILITY.md for the full catalog):

- :class:`MetricsRegistry` — labeled counters / gauges / histograms with
  Prometheus text exposition and canonical JSON export;
- :class:`SpanTracer` — spans keyed to the **simulation clock**, exported
  as Chrome trace-event JSON (``chrome://tracing`` / Perfetto) or JSONL;
- :class:`Telemetry` — the process-wide but test-isolatable handle the
  instrumented code writes through (:func:`get_telemetry`,
  :func:`use_telemetry`); the default :class:`NullTelemetry` makes every
  instrumentation site a single flag check;
- :class:`RunTelemetry` — the self-describing, byte-stable run artifact
  consumed by the ``grid-obs`` CLI (``python -m repro.obs``).

Wall-clock timing never enters this package's data: benchmarks inject a
:class:`~repro.obs.perfclock.PerfClock` (the sole GL001-allowlisted module).
"""

from .artifact import RunTelemetry
from .causal import CausalObserver, TraceContext, explain_request
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perfclock import PerfClock, TickClock, WallClock
from .schema import (
    ARTIFACT_SCHEMA,
    CHROME_TRACE_SCHEMA,
    SchemaError,
    validate,
    validate_artifact,
    validate_chrome_trace,
)
from .slo import (
    SLO_METRICS,
    SloBreach,
    SloRule,
    SloWatchdog,
    default_slo_rules,
    evaluate_artifact,
    load_rules,
)
from .summary import ArtifactSummary, summarize
from .telemetry import (
    NullTelemetry,
    Telemetry,
    TelemetryEvent,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from .tracer import Span, SpanTracer

__all__ = [
    "ARTIFACT_SCHEMA",
    "CHROME_TRACE_SCHEMA",
    "SLO_METRICS",
    "ArtifactSummary",
    "CausalObserver",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTelemetry",
    "PerfClock",
    "RunTelemetry",
    "SchemaError",
    "SloBreach",
    "SloRule",
    "SloWatchdog",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TelemetryEvent",
    "TickClock",
    "TraceContext",
    "WallClock",
    "default_slo_rules",
    "evaluate_artifact",
    "explain_request",
    "get_telemetry",
    "set_telemetry",
    "summarize",
    "use_telemetry",
    "validate",
    "validate_artifact",
    "validate_chrome_trace",
]
