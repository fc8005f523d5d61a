"""The front-end batcher: coalesce concurrent arrivals, order the batch.

Cohen et al.'s throughput-optimal online reservation results show batched
admission need not sacrifice throughput; what a batch buys here is an
admission *order* other than arrival order among requests that arrived
together.

The batcher collects submissions that arrive at the same simulated
instant (the gateway force-flushes whenever its clock advances, so a
batch never mixes instants) up to ``batch_size``, then releases them in
the order of a pluggable policy:

- ``fifo`` — submission order (the order under which shard count and
  batch size never change a decision);
- ``min-laxity`` — least scheduling slack first
  (``(t_end − now) − vol/MaxRate``), the classic urgency order: tight
  requests grab capacity before flexible ones fragment it;
- ``max-value`` — largest volume first, a provider revenue proxy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter

from ..core.errors import ConfigurationError
from ..core.profile import RateProfile

__all__ = ["AdmissionOrdering", "Batcher", "Pending"]

#: An undecided submission: its submission order (``seq``), its request's
#: fields ``rid, ingress, egress, volume, t_start, t_end, max_rate`` and the
#: stepwise shape its client asked for (``None``: constant rate).
Pending = tuple[int, int, int, int, float, float, float, float, "RateProfile | None"]


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
    """Bounded accumulator of undecided submissions with a flush order."""

    batch_size: int
    ordering: AdmissionOrdering = AdmissionOrdering.FIFO
    _pending: list[Pending] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, pending: Pending) -> int:
        """Add one submission to the open batch; how many it now holds."""
        self._pending.append(pending)
        return len(self._pending)

    def drain(self, now: float) -> list[Pending]:
        """Close the batch: empty the buffer, return it in admission order."""
        batch, self._pending = self._pending, []
        return self.order(batch, now)

    def order(self, batch: list[Pending], now: float) -> list[Pending]:
        """Sort one batch by the configured policy (stable, seq tiebreak)."""
        if self.ordering is AdmissionOrdering.FIFO:
            return sorted(batch, key=itemgetter(0))
        if self.ordering is AdmissionOrdering.MIN_LAXITY:
            # (t_end − now) − vol/MaxRate: the request's min_duration.
            return sorted(batch, key=lambda p: ((p[6] - now) - p[4] / p[7], p[0]))
        return sorted(batch, key=lambda p: (-p[4], p[0]))
