"""The load-run artifact: percentile arithmetic, schema, validation.

Every run ends in one JSON document (``grid-loadgen --out``), whose
error and answer counts set the command's exit status.  The document is
validated against :data:`LOADGEN_SCHEMA` with the repo's own minimal
validator (:func:`repro.obs.schema.validate`) before it is written — a malformed
artifact fails the producer, not a downstream consumer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import ConfigurationError
from ..obs.schema import SchemaError, validate

__all__ = ["LOADGEN_SCHEMA", "LatencySummary", "LoadReport", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``.

    Deterministic and library-free: sort, index at ``ceil(q/100 * n)``.
    Returns 0.0 for an empty sample set (a run that never measured).
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil without floats
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(slots=True)
class LatencySummary:
    """Wall-latency percentiles over one sample population (seconds)."""

    count: int
    p50: float
    p99: float
    p999: float
    mean: float
    max: float

    @classmethod
    def of(cls, samples: list[float]) -> LatencySummary:
        if not samples:
            return cls(count=0, p50=0.0, p99=0.0, p999=0.0, mean=0.0, max=0.0)
        return cls(
            count=len(samples),
            p50=percentile(samples, 50.0),
            p99=percentile(samples, 99.0),
            p999=percentile(samples, 99.9),
            mean=sum(samples) / len(samples),
            max=max(samples),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "mean": self.mean,
            "max": self.max,
        }


@dataclass
class LoadReport:
    """Everything one load run measured, in artifact shape."""

    seed: int
    clients: int
    mode: str
    wall_seconds: float = 0.0
    submits: int = 0
    accepted: int = 0
    rejected: int = 0
    edge_refused: int = 0
    quota_refused: int = 0
    #: Batch entries the service refused as structurally invalid (stale
    #: window, malformed fields) — never reached the gateway.
    invalid: int = 0
    http_errors: int = 0
    transport_errors: int = 0
    #: Per-submission wall latency (the enclosing POST's round trip).
    submit_latencies: list[float] = field(default_factory=list)
    reject_reasons: Counter[str] = field(default_factory=Counter)
    #: HTTP requests per endpoint pattern.
    endpoint_requests: Counter[str] = field(default_factory=Counter)
    #: Bookkeeping for the runner's auxiliary status/cancel reads (not
    #: part of the artifact).
    last_accepted_rid: int | None = None

    @property
    def decided(self) -> int:
        return self.accepted + self.rejected

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.decided if self.decided else 0.0

    def merge(self, other: LoadReport) -> None:
        """Fold a per-client report into this fleet-wide one."""
        self.submits += other.submits
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.edge_refused += other.edge_refused
        self.quota_refused += other.quota_refused
        self.invalid += other.invalid
        self.http_errors += other.http_errors
        self.transport_errors += other.transport_errors
        self.submit_latencies.extend(other.submit_latencies)
        self.reject_reasons.update(other.reject_reasons)
        self.endpoint_requests.update(other.endpoint_requests)

    def to_dict(self) -> dict[str, Any]:
        """The artifact document; validated against :data:`LOADGEN_SCHEMA`."""
        latency = LatencySummary.of(self.submit_latencies)
        throughput = self.submits / self.wall_seconds if self.wall_seconds > 0 else 0.0
        doc: dict[str, Any] = {
            "kind": "loadgen-report",
            "version": 1,
            "seed": self.seed,
            "clients": self.clients,
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "submits": self.submits,
            "submits_per_second": throughput,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "edge_refused": self.edge_refused,
            "quota_refused": self.quota_refused,
            "invalid": self.invalid,
            "http_errors": self.http_errors,
            "transport_errors": self.transport_errors,
            "accept_rate": self.accept_rate,
            "latency": latency.to_dict(),
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
            "endpoints": {
                pattern: {
                    "requests": count,
                    "per_second": count / self.wall_seconds
                    if self.wall_seconds > 0
                    else 0.0,
                }
                for pattern, count in sorted(self.endpoint_requests.items())
            },
        }
        errors = validate(doc, LOADGEN_SCHEMA)
        if errors:
            raise SchemaError("; ".join(errors))
        return doc


_LATENCY_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["count", "p50", "p99", "p999", "mean", "max"],
    "properties": {
        "count": {"type": "integer"},
        "p50": {"type": "number"},
        "p99": {"type": "number"},
        "p999": {"type": "number"},
        "mean": {"type": "number"},
        "max": {"type": "number"},
    },
}

#: The load-run artifact contract (``LOADGEN_*.json``).
LOADGEN_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "kind",
        "version",
        "seed",
        "clients",
        "mode",
        "wall_seconds",
        "submits",
        "submits_per_second",
        "accepted",
        "rejected",
        "edge_refused",
        "quota_refused",
        "invalid",
        "http_errors",
        "transport_errors",
        "accept_rate",
        "latency",
        "reject_reasons",
        "endpoints",
    ],
    "properties": {
        "kind": {"type": "string", "enum": ["loadgen-report"]},
        "version": {"type": "integer"},
        "seed": {"type": "integer"},
        "clients": {"type": "integer"},
        "mode": {"type": "string", "enum": ["closed", "paced"]},
        "wall_seconds": {"type": "number"},
        "submits": {"type": "integer"},
        "submits_per_second": {"type": "number"},
        "accepted": {"type": "integer"},
        "rejected": {"type": "integer"},
        "edge_refused": {"type": "integer"},
        "quota_refused": {"type": "integer"},
        "invalid": {"type": "integer"},
        "http_errors": {"type": "integer"},
        "transport_errors": {"type": "integer"},
        "accept_rate": {"type": "number"},
        "latency": _LATENCY_SCHEMA,
        "reject_reasons": {"type": "object"},
        "endpoints": {"type": "object"},
    },
}
