"""Causal request tracing: who caused what, across shards and faults.

A :class:`TraceContext` names one request's position in the admission
pipeline — ``trace_id`` for the whole request story, ``span_id`` for the
current hop, ``parent_id`` for the hop that caused it.  Contexts are
**derived, never drawn**: the root id is a pure function of the rid and
every child id is the parent's id plus a path segment, so two identical
seeded runs produce byte-identical causal records (no counters, no RNG,
no wall clock).

A request's hops hang off its root context as children::

    req-7                      submit / batch / decision
    req-7/prepare:ingress      2PC phase one on the ingress shard
    req-7/commit:egress        2PC phase two on the egress shard
    req-7/readmit:12           backlog re-admission (fresh rid 12)

Every :class:`~repro.gateway.rpc.Channel` delivery names its hop (the
path segment above), and a :class:`CausalObserver` adds deliveries and
chaos faults (drops, duplicates, delays, partitions, crashes) to the
record of the admission being placed — so a request's timeline shows
exactly which delivery was lost, on which edge, at which simulated time.
One admission is one record, stored once when it is decided and rendered
to those spans on read (:meth:`CausalObserver.store`).

:func:`explain_request` is the read side: it reconstructs one request's
full causal story from a :class:`~repro.obs.artifact.RunTelemetry`
artifact (plus, optionally, the gateway journal) — the backend of
``grid-obs explain <rid>``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any, NamedTuple

from .tracer import Hop

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .artifact import RunTelemetry
    from .recorder import FlightRecorder
    from .telemetry import Telemetry
    from .tracer import Span, SpanRecord

__all__ = ["CausalObserver", "TraceContext", "explain_request"]


#: What ``namedtuple.__new__`` itself calls, minus its keyword parsing.
_new_context = tuple.__new__


class TraceContext(NamedTuple):
    """One request's position in the causal tree (immutable, derived).

    A tuple, because one is minted per hop a read renders.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls, rid: int) -> TraceContext:
        """The root context of request ``rid`` — a pure function of the rid."""
        marker = f"req-{rid}"
        return _new_context(cls, (marker, marker, None))

    def child(self, segment: str) -> TraceContext:
        """A child hop named by appending ``segment`` to the span path."""
        span_id = self[1]
        return _new_context(TraceContext, (self[0], f"{span_id}/{segment}", span_id))

    def fields(self) -> dict[str, Any]:
        """The explicit-propagation form carried on events and spans."""
        out: dict[str, Any] = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        return out


class CausalObserver:
    """Turns gateway hops, channel deliveries and chaos faults into causal
    records.

    One observer serves a whole gateway.  While the gateway places one
    admission it holds that admission's record in :attr:`open`, and each
    :class:`~repro.gateway.rpc.Channel` (the coordinator hands every one
    this observer) adds the deliveries and faults it sees to it as
    :meth:`hop` tuples; the gateway then hands the finished record to
    :meth:`store`.  Its other verbs (cancel, abort, reshape) :meth:`note`
    one-span records.  Records go to the telemetry tracer and, when
    attached, the :class:`~repro.obs.recorder.FlightRecorder` — both keyed
    to simulated time, both deterministic.

    The telemetry handle is *provided*, not captured: the gateway may swap
    or scope its handle per run, so the observer re-reads it per record.
    """

    def __init__(
        self,
        telemetry: Callable[[], Telemetry],
        *,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self._telemetry = telemetry
        self.recorder = recorder
        #: The record of the admission being placed (``None``: untraced).
        self.open: Any = None

    def tracing(self) -> bool:
        """Would anything (the telemetry handle or a flight recorder)
        record a hop?  When not, callers mint no :class:`TraceContext`."""
        return self.recorder is not None or self._telemetry().enabled

    def hop(
        self, cat: str, what: str, shard: int, segment: str, detail: dict[str, Any] | None
    ) -> None:
        """A delivery (``rpc.<op>``) or a chaos fault (``chaos.<kind>``) on
        ``shard``, hop ``segment`` of the :attr:`open` admission, kept in its
        ``hops`` as a tuple :func:`hop_spans` renders on read (or nothing)."""
        record = self.open
        if record is not None:
            record.hops.append((cat, what, shard, segment, detail))

    def store(self, record: SpanRecord) -> None:
        """Keep one finished record: the tracer stores it un-rendered; a
        flight recorder (eager by design: it is the post-mortem) gets one
        row per span now, under the gateway or the span's shard edge."""
        tel = self._telemetry()
        if tel.enabled:
            tel.tracer.store(record)
        if self.recorder is not None:
            for span in record.spans():
                component = "gateway" if span.cat == "causal" else f"rpc.shard{span.tid}"
                self.recorder.record(component, span.start, span.name, **span.args)

    def note(
        self, name: str, now: float, ctx: TraceContext | None, detail: dict[str, Any]
    ) -> None:
        """One gateway-side hop on ``ctx``'s timeline (``ctx`` None:
        untraced, no-op); ``detail`` is the caller's to give away."""
        if ctx is not None:
            self.store(Hop(name, now, "causal", 0, ctx, detail))


def hop_spans(hops: Iterable[tuple[Any, ...]], now: float, ctx: TraceContext) -> list[Span]:
    """The spans of an admission's :meth:`CausalObserver.hop` tuples, each
    on the child context its segment names, ``args`` led by the shard."""
    spans = []
    for cat, what, shard, segment, detail in hops:
        fields = {"shard": shard, **detail} if detail else {"shard": shard}
        spans.append(Hop(f"{cat}.{what}", now, cat, shard, ctx.child(segment), fields).span())
    return spans


# ----------------------------------------------------------------------
# The read side: reconstruct one request's causal story
# ----------------------------------------------------------------------

def iter_captures(artifact: Any) -> Iterable[Mapping[str, Any]]:
    """Capture entries of a :class:`RunTelemetry` *or* its JSON-dict form."""
    if hasattr(artifact, "captures"):
        return artifact.captures()
    return artifact.get("captures", [])


def _trace_of(fields: Mapping[str, Any]) -> str | None:
    trace = fields.get("trace")
    return trace if isinstance(trace, str) else None


def _mentions(fields: Mapping[str, Any], rid: int) -> bool:
    return fields.get("rid") == rid or fields.get("origin") == rid


def _render_fields(fields: Mapping[str, Any]) -> str:
    parts = []
    for key in sorted(fields):
        value = fields[key]
        parts.append(f"{key}={json.dumps(value, sort_keys=True, default=str)}")
    return " ".join(parts)


def explain_request(
    artifact: RunTelemetry | Mapping[str, Any],
    rid: int,
    *,
    journal: Iterable[Any] | None = None,
) -> str | None:
    """Reconstruct request ``rid``'s full causal timeline from ``artifact``.

    Two passes: first collect every trace id that mentions the rid (the
    root ``req-<rid>`` plus any trace a re-admission or rebooking linked
    it into via ``origin``), then gather every journal op, event and span
    belonging to those traces and merge them into one time-ordered,
    deterministic text timeline.  ``journal`` may be a
    :class:`~repro.gateway.journal.Journal` (or any iterable of entries
    with ``op`` / ``now`` / ``args``).  Returns ``None`` when the
    artifact carries no record of the rid at all.
    """
    marker = f"req-{rid}"
    traces: set[str] = {marker}
    for entry in iter_captures(artifact):
        for event in entry.get("events", []):
            fields = event.get("fields", {})
            if _mentions(fields, rid):
                trace = _trace_of(fields)
                if trace is not None:
                    traces.add(trace)
        for span in entry.get("spans", []):
            args = span.get("args", {})
            if _mentions(args, rid):
                trace = _trace_of(args)
                if trace is not None:
                    traces.add(trace)

    # (time, insertion order) keys keep the merge stable and byte-identical
    # across runs: journal rows sort before events before spans at one
    # instant, and within each source record order is preserved.
    rows: list[tuple[float, int, str]] = []
    order = 0
    matched = 0

    if journal is not None:
        for entry in journal:
            args = dict(getattr(entry, "args", {}) or {})
            if not _mentions(args, rid):
                continue
            rows.append(
                (
                    float(entry.now),
                    order,
                    f"journal    {entry.op:<22} {_render_fields(args)}",
                )
            )
            order += 1
            matched += 1

    for entry in iter_captures(artifact):
        label = str(entry.get("label", ""))
        for event in entry.get("events", []):
            fields = dict(event.get("fields", {}))
            if _trace_of(fields) not in traces and not _mentions(fields, rid):
                continue
            rows.append(
                (
                    float(event["time"]),
                    order,
                    f"event      {str(event['name']):<22} "
                    f"[{label}] {_render_fields(fields)}",
                )
            )
            order += 1
            matched += 1
        for span in entry.get("spans", []):
            args = dict(span.get("args", {}))
            if _trace_of(args) not in traces and not _mentions(args, rid):
                continue
            kind = str(span.get("kind", "span"))
            name = str(span["name"])
            cat = str(span.get("cat", ""))
            source = {"chaos": "chaos", "rpc": "rpc"}.get(cat, kind)
            rows.append(
                (
                    float(span["start"]),
                    order,
                    f"{source:<10} {name:<22} [{label}] {_render_fields(args)}",
                )
            )
            order += 1
            matched += 1

    if matched == 0:
        return None
    rows.sort(key=lambda row: (row[0], row[1]))
    lines = [
        f"causal timeline for rid {rid} (trace {marker}; "
        f"{matched} record(s), {len(traces)} trace(s))"
    ]
    for t, _, text in rows:
        lines.append(f"t={t:<12.6g} {text}")
    return "\n".join(lines)
