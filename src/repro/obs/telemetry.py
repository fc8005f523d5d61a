"""The process-wide — but test-isolatable — telemetry handle.

A :class:`Telemetry` bundles the three capture surfaces:

- :attr:`Telemetry.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`;
- :attr:`Telemetry.tracer` — a :class:`~repro.obs.tracer.SpanTracer`
  keyed to the simulation clock;
- :meth:`Telemetry.emit` — structured decision events
  (:class:`TelemetryEvent`), e.g. one per admission decision.

Events are stored, not built: the ring keeps what :meth:`Telemetry.emit`
was handed, or a record handed to :meth:`Telemetry.store` (the gateway's
admission record is its ``gateway.submit`` event); :attr:`Telemetry.events`
is the one place either is rendered.  One entry is one event.  With both
rings bounded at 0 a handle keeps metrics only, and no record is built.

Instrumented code never pays for disabled telemetry: every site guards on
the :attr:`Telemetry.enabled` flag, and the default process-wide handle is
a :class:`NullTelemetry` whose flag is ``False`` — uninstrumented runs do
one attribute read and a branch per hot-path call, nothing else
(``benchmarks/bench_obs_overhead.py`` bounds what turning tracing *on*
costs the gateway).

Isolation: the process-wide handle is swapped with :func:`set_telemetry`
or, in tests, the :func:`use_telemetry` context manager, which restores
the previous handle on exit no matter what.  Objects that should not
depend on ambient state (e.g. a :class:`~repro.gateway.Gateway` under
test) accept an explicit handle instead.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

from ..core.errors import ConfigurationError
from .metrics import MetricsRegistry
from .tracer import SpanTracer

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "TelemetryEvent",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured event: when (simulated time), what, and the details."""

    time: float
    name: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form."""
        return {"time": self.time, "name": self.name, "fields": dict(self.fields)}


class Telemetry:
    """One capture context: metrics + spans + structured events.

    Parameters
    ----------
    max_events:
        FIFO bound on retained events (evictions are counted in
        :attr:`events_dropped`); ``None`` keeps everything, ``0`` nothing.
    max_spans:
        Capacity bound forwarded to the :class:`SpanTracer`.
    """

    enabled: bool = True

    def __init__(
        self,
        *,
        max_events: int | None = None,
        max_spans: int | None = None,
    ) -> None:
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        #: Does a ring keep anything?  ``False`` when both bounds are 0 (and
        #: on a :class:`NullTelemetry`): instrumented code stores no record.
        self.traced = self.enabled and (max_events != 0 or max_spans != 0)
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(capacity=max_spans)
        #: ``(time, name, fields)`` as emitted, or a stored record;
        #: :attr:`events` renders them.
        self._events: deque[Any] = deque(maxlen=max_events)
        #: Events recorded through :meth:`emit`, retained or since evicted.
        self.events_emitted = 0

    def emit(
        self, name: str, t: float, fields: dict[str, Any] | None = None, /, **kwargs: Any
    ) -> None:
        """Record a structured event at simulated time ``t``.

        The event's fields are the keywords or, for a caller that already
        holds them as one dict, ``fields`` — one form or the other, and
        the dict is kept, not copied: the caller gives it away (the same
        contract as :meth:`SpanTracer.instant`).
        """
        if not self.enabled:
            return
        if fields is None:
            fields = kwargs
        elif kwargs:
            raise TypeError(f"emit() got its fields as a dict and as keywords {list(kwargs)}")
        self._events.append((t, name, fields))
        self.events_emitted += 1

    def store(self, record: Any) -> None:
        """Record one event as ``record``, whose ``event()`` renders it on
        read as the ``(time, name, fields)`` :meth:`emit` would be handed."""
        if self.enabled:
            self._events.append(record)
            self.events_emitted += 1

    @property
    def events(self) -> list[TelemetryEvent]:
        """The retained events, oldest first.

        A snapshot rendered on every read — O(retained), and later
        ``emit`` calls do not show in a list already taken; for counts use
        :attr:`events_emitted` and :attr:`events_dropped`.
        """
        return [
            TelemetryEvent(*(entry if type(entry) is tuple else entry.event()))
            for entry in self._events
        ]

    @property
    def events_dropped(self) -> int:
        """Events evicted by the ``max_events`` bound (emitted − retained)."""
        return self.events_emitted - len(self._events)

    def is_empty(self) -> bool:
        """True when nothing has been recorded through this handle."""
        return not self._events and not len(self.tracer) and not len(self.metrics)

    def snapshot(self) -> dict[str, Any]:
        """Canonical JSON-able digest of everything captured so far."""
        return {
            "metrics": self.metrics.to_dict(),
            "spans": self.tracer.to_dicts(),
            "events": [event.to_dict() for event in self.events],
            "dropped": {
                "events": self.events_dropped,
                "spans": self.tracer.dropped,
            },
        }


class NullTelemetry(Telemetry):
    """The no-op handle: :attr:`enabled` is False, every surface stays inert.

    Instrumentation guards on ``enabled`` before touching metrics or the
    tracer, so a null handle makes the whole layer cost one attribute read
    per instrumented call.
    """

    enabled = False

    def emit(
        self, name: str, t: float, fields: dict[str, Any] | None = None, /, **kwargs: Any
    ) -> None:
        """Discard the event."""


#: The process-wide handle; swapped via :func:`set_telemetry`.
_CURRENT: Telemetry = NullTelemetry()


def get_telemetry() -> Telemetry:
    """The current process-wide telemetry handle (a no-op one by default)."""
    return _CURRENT


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` process-wide; returns the previous handle."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` for the duration of a ``with`` block.

    The previous handle is restored on exit (exceptions included), so
    tests never leak instrumentation into each other.
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
