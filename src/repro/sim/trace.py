"""Event tracing for simulations.

An :class:`EventTrace` records ``(time, label, payload)`` rows as a
simulation dispatches events.  Traces make the online schedulers and the
fluid simulator inspectable in tests and debuggable in examples without any
printing inside the hot loops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .events import Event

__all__ = ["EventTrace", "TraceRecord"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One dispatched event: when it fired and what it carried."""

    time: float
    label: str
    payload: Any


class EventTrace:
    """An append-only record of dispatched events.

    Parameters
    ----------
    capacity:
        Optional bound; older records are dropped FIFO once exceeded (keeps
        long simulations memory-bounded when only the tail matters).  The
        records sit in a ``deque`` ring, so an eviction is O(1) whatever
        the capacity.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._recorded = 0

    def record(self, event: Event) -> None:
        """Record a dispatched :class:`~repro.sim.events.Event`."""
        label = getattr(event.callback, "__name__", repr(event.callback))
        self.append(event.time, label, event.payload)

    def append(self, time: float, label: str, payload: Any = None) -> None:
        """Record an arbitrary row (schedulers log decisions through this)."""
        self._records.append(TraceRecord(time, label, payload))
        self._recorded += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def dropped(self) -> int:
        """Number of records evicted due to the capacity bound."""
        return self._recorded - len(self._records)

    def filter(self, label: str) -> list[TraceRecord]:
        """All records with the given label."""
        return [r for r in self._records if r.label == label]

    def times(self) -> list[float]:
        """Dispatch times, in order."""
        return [r.time for r in self._records]

    def summary(self) -> dict[str, Any]:
        """Digest of the trace: retained/dropped counts and label histogram.

        ``dropped`` counts FIFO evictions by the capacity bound, so
        ``recorded = retained + dropped`` is the true number of dispatches
        even when only the tail was kept.  Admission-shaped payloads are
        tallied too: any record whose payload carries a ``reason`` (a
        :class:`~repro.core.booking.RejectReason` or its string value —
        ``shard-unreachable`` being the one chaos drills care about) lands
        in ``reject_reasons``, and records labeled as re-admissions count
        toward ``readmissions``.
        """
        labels: dict[str, int] = {}
        reject_reasons: dict[str, int] = {}
        readmissions = 0
        for record in self._records:
            labels[record.label] = labels.get(record.label, 0) + 1
            reason = self._reason_of(record.payload)
            if reason is not None:
                reject_reasons[reason] = reject_reasons.get(reason, 0) + 1
            if "readmit" in record.label:
                readmissions += 1
        return {
            "retained": len(self._records),
            "dropped": self.dropped,
            "recorded": self._recorded,
            "labels": dict(sorted(labels.items())),
            "reject_reasons": dict(sorted(reject_reasons.items())),
            "readmissions": readmissions,
            "first_time": self._records[0].time if self._records else None,
            "last_time": self._records[-1].time if self._records else None,
        }

    @staticmethod
    def _reason_of(payload: Any) -> str | None:
        """Normalised reject reason carried by a payload, if any."""
        reason: Any = None
        if isinstance(payload, dict):
            reason = payload.get("reason")
        elif hasattr(payload, "reason"):
            reason = payload.reason
        if reason is None:
            return None
        value = getattr(reason, "value", reason)  # RejectReason -> its string
        return value if isinstance(value, str) else str(value)
