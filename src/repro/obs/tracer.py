"""Span tracing keyed to the **simulation clock**.

A :class:`Span` is a named interval of simulated time (seconds); an
*instant* is a zero-length marker.  The tracer never reads the host clock
— every timestamp arrives as an explicit argument, exactly like the rest
of the control plane, so traces replay byte-identically (wall-clock timing
for benchmarks lives behind :mod:`repro.obs.perfclock` instead).

Exports:

- :meth:`SpanTracer.to_chrome_trace` — the Chrome trace-event JSON format
  (load the file in ``chrome://tracing`` or Perfetto; simulated seconds
  are mapped to trace microseconds);
- :meth:`SpanTracer.to_jsonl` — one canonical JSON object per span, for
  line-oriented tooling.

Both directions round-trip: :meth:`SpanTracer.from_chrome_trace` and
:meth:`SpanTracer.from_jsonl` rebuild an equivalent tracer.

Write path / read path: recording only *stores*.  The ring holds
*records* (:class:`SpanRecord`), each rendering to ``width`` spans on read
(iteration, :meth:`SpanTracer.spans`, any export): a :class:`Span` is its
own one-span record, a causal hop — :meth:`SpanTracer.instant` with a
``ctx`` — is kept as the caller's :class:`Hop`, and a caller deciding many
spans at once (a gateway admission) hands :meth:`SpanTracer.store` one
record for all of them.  The capacity and ``dropped`` count spans: eviction
pops whole records and keeps an offset into a head record the bound cuts,
so the tracer reads as a per-span ``deque(maxlen=capacity)``.  A hot
caller hands ``fields`` over as one dict, positionally: keyword arguments
cost a parse and a repack per call, a dict literal does not.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, NamedTuple, Protocol

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .causal import TraceContext

__all__ = ["Hop", "Span", "SpanRecord", "SpanTracer", "SECONDS_TO_TRACE_US"]

#: Chrome trace events are timestamped in microseconds.
SECONDS_TO_TRACE_US: float = 1e6


@dataclass(slots=True)
class Span:
    """One named interval (or instant) of simulated time."""

    name: str
    start: float
    #: ``None`` while the span is still open (see :meth:`SpanTracer.finish`).
    end: float | None = None
    cat: str = ""
    #: Track id — lets related spans share a row in trace viewers
    #: (e.g. one track per ingress port).
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    #: ``"span"`` for intervals, ``"instant"`` for zero-length markers.
    kind: str = "span"
    @property
    def width(self) -> int:
        """A span is the one-span ring record of itself."""
        return 1

    def spans(self) -> tuple[Span]:
        return (self,)

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0 for instants and open spans)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "cat": self.cat,
            "tid": self.tid,
            "args": dict(self.args),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Span:
        """Inverse of :meth:`to_dict`."""
        end = data.get("end")
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),
            end=None if end is None else float(end),
            cat=str(data.get("cat", "")),
            tid=int(data.get("tid", 0)),
            args=dict(data.get("args", {})),
            kind=str(data.get("kind", "span")),
        )


class SpanRecord(Protocol):
    """A ring entry: ``width`` spans, built by ``spans()`` on read."""

    @property
    def width(self) -> int: ...

    def spans(self) -> Sequence[Span]: ...


class Hop(NamedTuple):
    """An un-rendered causal instant on ``ctx``'s timeline (one span)."""

    name: str
    t: float
    cat: str
    tid: int
    ctx: TraceContext
    fields: dict[str, Any]

    @property
    def width(self) -> int:
        return 1

    def spans(self) -> tuple[Span]:
        return (self.span(),)

    def span(self) -> Span:
        """The instant, its ``args`` led by the context's trace / span / parent."""
        return Span(
            name=self.name, start=self.t, end=self.t, cat=self.cat, tid=self.tid,
            args={**self.ctx.fields(), **self.fields}, kind="instant",
        )  # fmt: skip


class SpanTracer:
    """Append-only span collector with an optional FIFO capacity bound.

    Parameters
    ----------
    capacity:
        Keep at most this many spans; older spans are evicted FIFO once
        exceeded (mirrors :class:`repro.sim.trace.EventTrace`) and counted
        in :attr:`dropped`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self._capacity = sys.maxsize if capacity is None else capacity
        self._ring: deque[SpanRecord] = deque()
        self._pushed = 0
        self._retained = 0
        #: Leading spans of the head record already evicted.
        self._cut = 0

    # ------------------------------------------------------------------
    def store(self, record: SpanRecord) -> None:
        """Keep ``record`` as given; its ``width`` spans render on read."""
        self._ring.append(record)
        width = record.width
        self._pushed += width
        self._retained += width
        if self._retained > self._capacity:
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest spans beyond the capacity: whole records off the
        head, then an offset into the head record the bound cuts through."""
        ring = self._ring
        excess = self._retained - self._capacity
        self._retained -= excess
        while excess:
            left = ring[0].width - self._cut
            if left > excess:
                self._cut += excess
                return
            ring.popleft()
            self._cut = 0
            excess -= left

    def _push(self, span: Span) -> Span:
        self.store(span)
        return span

    def begin(self, name: str, t: float, *, cat: str = "", tid: int = 0, **args: Any) -> Span:
        """Open a span at simulated time ``t``; close it with :meth:`finish`."""
        return self._push(Span(name=name, start=t, cat=cat, tid=tid, args=args))

    def finish(self, span: Span, t: float) -> Span:
        """Close an open span at simulated time ``t``."""
        if span.end is not None:
            raise ConfigurationError(f"span {span.name!r} already finished")
        if t < span.start:
            raise ConfigurationError(
                f"span {span.name!r} cannot finish at {t} before its start {span.start}"
            )
        span.end = t
        return span

    def complete(
        self, name: str, start: float, end: float, *, cat: str = "", tid: int = 0, **args: Any
    ) -> Span:
        """Record a span whose bounds are both known."""
        if end < start:
            raise ConfigurationError(f"span {name!r} has end {end} before start {start}")
        return self._push(Span(name=name, start=start, end=end, cat=cat, tid=tid, args=args))

    def instant(
        self,
        name: str,
        t: float,
        fields: dict[str, Any] | None = None,
        /,
        *,
        cat: str = "",
        tid: int = 0,
        ctx: TraceContext | None = None,
        **args: Any,
    ) -> Span | None:
        """Record a zero-length marker at simulated time ``t``.

        The marker's own arguments are the keywords or, for a caller that
        already holds them as one dict, ``fields`` — one form or the
        other, never both.  The dict is kept, not copied: the caller gives
        it away and must not touch it afterwards (a later mutation would
        show in every export).  With a ``ctx`` the marker is a causal
        hop: it is stored as given and nothing is returned — the span,
        whose ``args`` lead with the context's ``trace`` / ``span`` /
        ``parent``, is rendered on read.
        """
        if fields is not None:
            if args:
                raise TypeError(f"instant() got its fields as a dict and as keywords {list(args)}")
            args = fields
        if ctx is not None:
            self.store(Hop(name, t, cat, tid, ctx, args))
            return None
        return self._push(
            Span(name=name, start=t, end=t, cat=cat, tid=tid, args=args, kind="instant")
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._retained

    def __iter__(self) -> Iterator[Span]:
        spans = chain.from_iterable(record.spans() for record in self._ring)
        return islice(spans, self._cut, None)

    @property
    def dropped(self) -> int:
        """Spans evicted by the capacity bound (pushed − retained)."""
        return self._pushed - self._retained

    def spans(self, *, name: str | None = None, cat: str | None = None) -> list[Span]:
        """Recorded spans, optionally filtered by name and/or category."""
        out = []
        for span in self:
            if name is not None and span.name != name:
                continue
            if cat is not None and span.cat != cat:
                continue
            out.append(span)
        return out

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """Every span as its canonical dict, in record order."""
        return [span.to_dict() for span in self]

    def to_chrome_trace(self, *, pid: int = 0) -> dict[str, Any]:
        """The Chrome trace-event document (``chrome://tracing`` / Perfetto).

        Simulated seconds map to trace microseconds.  Intervals become
        complete events (``ph: "X"``); instants become instant events
        (``ph: "i"``); spans still open at export time are emitted as
        begin events (``ph: "B"``) so viewers show them as unterminated.
        """
        events: list[dict[str, Any]] = []
        for span in self:
            base: dict[str, Any] = {
                "name": span.name,
                "cat": span.cat or "repro",
                "ts": span.start * SECONDS_TO_TRACE_US,
                "pid": pid,
                "tid": span.tid,
                "args": dict(span.args),
            }
            if span.kind == "instant":
                events.append({**base, "ph": "i", "s": "t"})
            elif span.end is None:
                events.append({**base, "ph": "B"})
            else:
                events.append(
                    {**base, "ph": "X", "dur": (span.end - span.start) * SECONDS_TO_TRACE_US}
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @classmethod
    def from_chrome_trace(cls, document: Mapping[str, Any]) -> SpanTracer:
        """Rebuild a tracer from :meth:`to_chrome_trace` output."""
        tracer = cls()
        for event in document.get("traceEvents", []):
            phase = event.get("ph")
            start = float(event.get("ts", 0.0)) / SECONDS_TO_TRACE_US
            cat = str(event.get("cat", ""))
            cat = "" if cat == "repro" else cat
            common: dict[str, Any] = {
                "cat": cat,
                "tid": int(event.get("tid", 0)),
            }
            name = str(event.get("name", ""))
            args = dict(event.get("args", {}))
            if phase == "i":
                tracer._push(
                    Span(name=name, start=start, end=start, args=args, kind="instant", **common)
                )
            elif phase == "B":
                span = tracer.begin(name, start, **common)
                span.args.update(args)
            elif phase == "X":
                end = start + float(event.get("dur", 0.0)) / SECONDS_TO_TRACE_US
                span = tracer.complete(name, start, end, **common)
                span.args.update(args)
            # Other phases (metadata, counters, ...) are not produced by
            # to_chrome_trace and are skipped on import.
        return tracer

    def to_jsonl(self) -> str:
        """One canonical JSON object per span, newline-separated."""
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
            for span in self
        ) + ("\n" if self._retained else "")

    @classmethod
    def from_jsonl(cls, text: str) -> SpanTracer:
        """Rebuild a tracer from :meth:`to_jsonl` output."""
        tracer = cls()
        for line in text.splitlines():
            line = line.strip()
            if line:
                tracer._push(Span.from_dict(json.loads(line)))
        return tracer
