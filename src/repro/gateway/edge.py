"""Per-client token-bucket backpressure at the gateway edge.

The paper's deployment pairs admission with client-side token-bucket
enforcement (§5.4); the gateway reuses the same primitive
(:class:`~repro.gateway.token_bucket.TokenBucket`) one layer earlier, as
*submission* backpressure: each client may ask for at most ``burst`` MB
at once and ``rate`` MB/s sustained.  A submission whose volume does not
conform is refused at the edge — it never reaches a batch, never runs a
search, and is counted in the ``gateway_edge_refusals_total`` metric.

Refusal is deterministic: buckets are per-client, fed the gateway's
forward-only clock, and hold no randomness.

The limiter does not care what a token is.  The HTTP service runs a
second instance in front of this one as its per-client *request* quota —
same ``(rate, burst)`` value type, one token per request
(:func:`repro.serve.deps.build_context`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .token_bucket import TokenBucket
from ..core.errors import ConfigurationError

__all__ = ["EdgeLimit", "EdgeLimiter"]


@dataclass(frozen=True, slots=True)
class EdgeLimit:
    """Per-client sustained ``rate`` and ``burst``: MB/s and MB at the
    gateway's volume edge, requests/s and requests as the service's quota."""

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ConfigurationError(
                f"edge limit needs positive rate and burst, got ({self.rate}, {self.burst})"
            )

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form (journal header)."""
        return {"rate": self.rate, "burst": self.burst}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> EdgeLimit:
        """Inverse of :meth:`to_dict`."""
        return cls(rate=float(data["rate"]), burst=float(data["burst"]))


class EdgeLimiter:
    """Lazily-created per-client token buckets enforcing an :class:`EdgeLimit`."""

    __slots__ = ("limit", "_buckets", "refused", "admitted")

    def __init__(self, limit: EdgeLimit) -> None:
        self.limit = limit
        self._buckets: dict[str, TokenBucket] = {}
        self.refused = 0
        self.admitted = 0

    def admit(self, client: str, volume: float, now: float) -> bool:
        """Offer ``volume`` tokens (one submission's MB; one request) to
        the client's bucket."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(rate=self.limit.rate, burst=self.limit.burst)
            bucket.reset(now)
            self._buckets[client] = bucket
        if bucket.offer(now, volume):
            self.admitted += 1
            return True
        self.refused += 1
        return False

    def retry_after(self, client: str, volume: float, now: float) -> float:
        """Seconds until ``volume`` would conform for ``client``.

        The boundary mirrors the hold-TTL convention (``hold_expired``):
        at *exactly* ``now + retry_after`` the offer conforms — the refill
        instant itself is on the admitting side, so a client that sleeps
        the hinted duration and retries is never refused again by the same
        deficit.  ``0.0`` means the volume conforms right now (the refusal
        was for a different client or already healed); ``inf`` means the
        volume exceeds the burst and can never conform in one piece.
        """
        bucket = self._buckets.get(client)
        if bucket is None:
            return 0.0
        return max(0.0, bucket.earliest_conforming(now, volume) - now)

    def clients(self) -> list[str]:
        """Every client seen so far (deterministic order)."""
        return sorted(self._buckets)
