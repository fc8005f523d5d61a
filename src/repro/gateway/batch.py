"""The front-end batcher: coalesce concurrent arrivals, order the batch.

Cohen et al.'s throughput-optimal online reservation results show batched
admission need not sacrifice throughput; what a batch buys here is an
admission *order* other than arrival order among requests that arrived
together.

The batcher collects submissions that arrive at the same simulated
instant (the gateway force-flushes whenever its clock advances, so a
batch never mixes instants) up to ``batch_size``, then releases them in
the order of a pluggable policy:

- ``fifo`` — submission order (the monolithic service's order; the
  single-shard equivalence tests run this);
- ``min-laxity`` — least scheduling slack first
  (``(t_end − now) − vol/MaxRate``), the classic urgency order: tight
  requests grab capacity before flexible ones fragment it;
- ``max-value`` — largest volume first, a provider revenue proxy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from .gateway import Ticket

__all__ = ["AdmissionOrdering", "Batcher"]


class AdmissionOrdering(enum.Enum):
    """Pluggable intra-batch admission order."""

    FIFO = "fifo"
    MIN_LAXITY = "min-laxity"
    MAX_VALUE = "max-value"

    @classmethod
    def from_name(cls, name: str | AdmissionOrdering) -> AdmissionOrdering:
        """Resolve a policy by its wire name (``fifo`` / ``min-laxity`` / ``max-value``)."""
        if isinstance(name, cls):
            return name
        for member in cls:
            if member.value == name:
                return member
        raise ConfigurationError(
            f"unknown admission ordering {name!r}; "
            f"known: {', '.join(m.value for m in cls)}"
        )


@dataclass
class Batcher:
    """Bounded accumulator of undecided tickets with a flush order."""

    batch_size: int
    ordering: AdmissionOrdering = AdmissionOrdering.FIFO
    _pending: list[Ticket] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        """Has the batch reached ``batch_size``?"""
        return len(self._pending) >= self.batch_size

    def enqueue(self, ticket: Ticket) -> None:
        """Add one submission to the open batch."""
        self._pending.append(ticket)

    def drain(self, now: float) -> list[Ticket]:
        """Close the batch: empty the buffer, return it in admission order."""
        batch, self._pending = self._pending, []
        return self.order(batch, now)

    def order(self, batch: list[Ticket], now: float) -> list[Ticket]:
        """Sort one batch by the configured policy (stable, seq tiebreak)."""
        if self.ordering is AdmissionOrdering.FIFO:
            return sorted(batch, key=lambda t: t.seq)
        if self.ordering is AdmissionOrdering.MIN_LAXITY:
            return sorted(
                batch,
                key=lambda t: ((t.request.t_end - now) - t.request.min_duration, t.seq),
            )
        return sorted(batch, key=lambda t: (-t.request.volume, t.seq))
