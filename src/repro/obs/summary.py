"""Summaries of run-telemetry artifacts (the ``grid-obs summary`` backend).

Aggregates every capture of a :class:`~repro.obs.artifact.RunTelemetry`
into the questions an operator actually asks after a run:

- how many submissions were accepted / rejected, and the top reject
  reasons (from the ``gateway_submits_total`` / ``gateway_rejects_total``
  counters);
- how many backlogged rejections were re-admitted
  (``gateway_readmissions_total``);
- where simulated time went — a flamegraph-style table aggregating spans
  by name (count, total, mean, max duration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .artifact import RunTelemetry
from .metrics import Counter, Gauge, MetricsRegistry

__all__ = ["ArtifactSummary", "SpanRow", "summarize"]

#: Metric names the gateway publishes (see docs/OBSERVABILITY.md).
SUBMITS_TOTAL = "gateway_submits_total"
REJECTS_TOTAL = "gateway_rejects_total"
READMISSIONS_TOTAL = "gateway_readmissions_total"


@dataclass(frozen=True, slots=True)
class SpanRow:
    """One aggregated span name in the flamegraph table."""

    name: str
    count: int
    total: float
    mean: float
    max: float


@dataclass
class ArtifactSummary:
    """Everything ``grid-obs summary`` prints, as data."""

    name: str
    captures: int
    accepted: int
    rejected: int
    reject_reasons: dict[str, int] = field(default_factory=dict)
    #: Backlogged rejections later re-admitted.
    readmissions: int = 0
    span_table: list[SpanRow] = field(default_factory=list)
    events: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def accept_rate(self) -> float:
        """Accepted over decided submissions (0 when nothing was decided)."""
        decided = self.accepted + self.rejected
        return self.accepted / decided if decided else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (``grid-obs summary --json``)."""
        return {
            "name": self.name,
            "captures": self.captures,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "accept_rate": self.accept_rate,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
            "readmissions": self.readmissions,
            "spans": [
                {
                    "name": row.name,
                    "count": row.count,
                    "total": row.total,
                    "mean": row.mean,
                    "max": row.max,
                }
                for row in self.span_table
            ],
            "events": self.events,
            "counters": dict(sorted(self.counters.items())),
        }

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"run: {self.name}  ({self.captures} capture(s), {self.events} event(s))"]
        decided = self.accepted + self.rejected
        if decided:
            lines.append(
                f"admission: {self.accepted} accepted / {self.rejected} rejected "
                f"(accept rate {self.accept_rate:.2%})"
            )
        if self.reject_reasons:
            lines.append("top reject reasons:")
            ranked = sorted(self.reject_reasons.items(), key=lambda kv: (-kv[1], kv[0]))
            for reason, count in ranked:
                lines.append(f"  {reason:28s} {count}")
        if self.readmissions:
            lines.append(f"backlog re-admissions: {self.readmissions}")
        if self.span_table:
            lines.append("spans (by simulated time):")
            lines.append(f"  {'name':32s} {'count':>7s} {'total_s':>12s} {'mean_s':>10s} {'max_s':>10s}")
            for row in self.span_table:
                lines.append(
                    f"  {row.name:32s} {row.count:7d} {row.total:12.1f} "
                    f"{row.mean:10.2f} {row.max:10.2f}"
                )
        if len(lines) == 1:
            lines.append("(artifact carries no admission telemetry)")
        return "\n".join(lines)


def _iter_registries(artifact: RunTelemetry) -> list[MetricsRegistry]:
    return [MetricsRegistry.from_dict(entry["metrics"]) for entry in artifact.captures()]


def summarize(artifact: RunTelemetry) -> ArtifactSummary:
    """Aggregate an artifact's captures into an :class:`ArtifactSummary`."""
    accepted = 0
    rejected = 0
    reject_reasons: dict[str, int] = {}
    readmissions = 0
    counters: dict[str, float] = {}
    events = 0

    for registry in _iter_registries(artifact):
        submits = registry.get(SUBMITS_TOTAL)
        if isinstance(submits, Counter):
            for labels, value in submits.samples():
                if labels.get("outcome") == "accepted":
                    accepted += int(value)
                elif labels.get("outcome") == "rejected":
                    rejected += int(value)
        rejects = registry.get(REJECTS_TOTAL)
        if isinstance(rejects, Counter):
            for labels, value in rejects.samples():
                reason = labels.get("reason", "unspecified")
                reject_reasons[reason] = reject_reasons.get(reason, 0) + int(value)
        readmits = registry.get(READMISSIONS_TOTAL)
        if isinstance(readmits, Counter):
            readmissions += int(readmits.total())
        for name in registry.names():
            instrument = registry.get(name)
            if isinstance(instrument, Counter) and not isinstance(instrument, Gauge):
                counters[name] = counters.get(name, 0.0) + instrument.total()

    # Flamegraph-style aggregation over every capture's spans.
    stats: dict[str, list[float]] = {}
    for entry in artifact.captures():
        events += len(entry.get("events", []))
        for span in entry.get("spans", []):
            end = span.get("end")
            duration = 0.0 if end is None else float(end) - float(span["start"])
            stats.setdefault(str(span["name"]), []).append(duration)
    table = [
        SpanRow(
            name=name,
            count=len(durations),
            total=sum(durations),
            mean=sum(durations) / len(durations),
            max=max(durations),
        )
        for name, durations in stats.items()
    ]
    table.sort(key=lambda row: (-row.total, row.name))

    return ArtifactSummary(
        name=artifact.name,
        captures=len(artifact),
        accepted=accepted,
        rejected=rejected,
        reject_reasons=reject_reasons,
        readmissions=readmissions,
        span_table=table,
        events=events,
        counters=counters,
    )
