"""Token-bucket rate enforcement (§5.4).

The paper's implementation enforces granted allocations with "local
bandwidth control on the client side (token bucket based)" plus hardware
pacing at the access point, so that flows exceeding their reservation are
dropped rather than allowed to hurt conforming traffic.  This module
models that enforcement point: a classic token bucket with rate ``r`` and
burst ``b``, plus helpers to classify a packet series into
conforming/dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TokenBucket", "enforce_series"]


@dataclass
class TokenBucket:
    """A token bucket: tokens accrue at ``rate`` (MB/s) up to ``burst`` MB.

    The bucket starts full.  All times are absolute simulation seconds and
    must be fed in non-decreasing order.
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.burst <= 0:
            raise ConfigurationError(f"burst must be positive, got {self.burst}")
        self._tokens = self.burst
        self._last = 0.0

    def _advance(self, t: float) -> None:
        if t < self._last:
            raise ConfigurationError(f"time went backwards: {t} < {self._last}")
        self._tokens = min(self.burst, self._tokens + self.rate * (t - self._last))
        self._last = t

    @property
    def tokens(self) -> float:
        """Tokens currently in the bucket (at the last fed time)."""
        return self._tokens

    def offer(self, t: float, size: float) -> bool:
        """Offer ``size`` MB at time ``t``; consume tokens iff conforming."""
        if size < 0:
            raise ConfigurationError(f"negative size {size}")
        self._advance(t)
        if size <= self._tokens + 1e-12:
            self._tokens -= size
            return True
        return False

    def earliest_conforming(self, t: float, size: float) -> float:
        """Earliest time ≥ ``t`` at which ``size`` MB would conform.

        Does not consume tokens.  ``inf`` when ``size`` exceeds the burst
        (it can never conform in one piece).
        """
        if size > self.burst:
            return float("inf")
        self._advance(t)
        deficit = size - self._tokens
        if deficit <= 0:
            return t
        return t + deficit / self.rate

    def dump_state(self) -> tuple[float, float]:
        """``(tokens, last fed time)``: what :meth:`load_state` restores."""
        return self._tokens, self._last

    def load_state(self, state: tuple[float, float]) -> None:
        """Resume a bucket from its :meth:`dump_state`."""
        self._tokens, self._last = state

    def reset(self, t: float = 0.0) -> None:
        """Refill the bucket and restart the clock at ``t``."""
        self._tokens = self.burst
        self._last = t


def enforce_series(
    bucket: TokenBucket, times: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Run a packet series through ``bucket``; True where conforming.

    Models the drop-enforcement at the access point: non-conforming packets
    are dropped (they do not consume tokens).
    """
    import numpy as np

    times = np.asarray(times, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    if times.shape != sizes.shape:
        raise ConfigurationError("times and sizes must have equal length")
    ok = np.zeros(times.shape, dtype=bool)
    for k in range(times.size):
        ok[k] = bucket.offer(float(times[k]), float(sizes[k]))
    return ok
