"""Problem instances: a platform plus a set of requests.

A :class:`ProblemInstance` is the unit every scheduler consumes and every
workload generator produces.  It also carries the paper's *load* statistic
(§4.3), the ratio of demanded to available bandwidth, which the experiment
harness uses to label sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .platform import Platform
from .request import RequestSet

__all__ = ["ProblemInstance"]


@dataclass(frozen=True)
class ProblemInstance:
    """An immutable (platform, requests) pair."""

    platform: Platform
    requests: RequestSet

    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        """Number of requests ``K``."""
        return len(self.requests)

    def offered_load_rate(self) -> float:
        """Steady-state offered load: bytes offered per second over capacity.

        ``(Σ_r vol(r) / horizon) / half_capacity`` where the horizon is the
        span between the first arrival and the last deadline.  Equals the
        time-average of concurrent demanded bandwidth when windows tile the
        horizon.
        """
        if not self.requests:
            return 0.0
        t0, t1 = self.requests.time_span()
        horizon = t1 - t0
        if horizon <= 0:
            return 0.0
        return (self.requests.total_volume() / horizon) / self.platform.half_capacity
