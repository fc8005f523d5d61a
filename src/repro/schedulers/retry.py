"""Client retry behaviour (§2.3): "stand the risk of being rejected and
try later".

The paper's customer model lets a rejected user resubmit while its window
still has room.  :class:`RetryGreedyFlexible` wraps the GREEDY admission
rule with an exponential-backoff retry queue: a rejected request retries
until its deadline can no longer be met at ``MaxRate`` (or a retry budget
runs out), at which point it is finally rejected.

Because a retry starts later, the deadline-implied rate floor grows at
each attempt: retrying users are admitted at progressively *higher* rates
— the natural incentive the paper's customer/provider discussion sketches.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..core.problem import ProblemInstance
from ..core.allocation import ScheduleResult
from ..gateway.twophase import BackoffSchedule
from .base import Scheduler
from .flexible import _PortOccupancy
from .policies import BandwidthPolicy, MinRatePolicy

__all__ = ["BackoffSchedule", "RetryGreedyFlexible"]


@dataclass
class RetryGreedyFlexible(Scheduler):
    """GREEDY admission with exponential-backoff retries.

    Parameters
    ----------
    policy:
        Bandwidth assignment policy (rate floored by the *current* attempt
        time's deadline rate).
    backoff:
        Delay before the first retry, seconds.
    multiplier:
        Backoff growth factor per attempt (≥ 1).
    max_attempts:
        Total admission attempts per request (1 = plain GREEDY).
    """

    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)
    backoff: float = 60.0
    multiplier: float = 2.0
    max_attempts: int = 8

    def __post_init__(self) -> None:
        # Validation (and the delay computation below) live in BackoffSchedule.
        self._schedule = BackoffSchedule(
            base=self.backoff, multiplier=self.multiplier, max_attempts=self.max_attempts
        )
        self.name = f"retry-greedy[{self.policy.name},x{self.max_attempts}]"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        result = self._new_result(
            policy=self.policy.name,
            backoff=self.backoff,
            max_attempts=self.max_attempts,
        )
        platform = problem.platform
        occupancy = _PortOccupancy(platform.num_ingress, platform.num_egress)

        counter = itertools.count()
        queue: list[tuple[float, int, int, object]] = []  # (time, seq, attempt, request)
        for request in problem.requests.sorted_by_arrival():
            heapq.heappush(queue, (request.t_start, next(counter), 1, request))

        retries_used = 0
        while queue:
            now, _, attempt, request = heapq.heappop(queue)
            occupancy.release_until(now)
            bw = self.policy.rate(request.volume, request.t_end, request.max_rate, now)
            if bw is not None and occupancy.fits(request, bw, platform):
                result.accept(occupancy.admit(request, bw, now))
                continue
            # Schedule a retry if the deadline would still be reachable then.
            retry_at = now + self._schedule.delay(attempt)
            if (
                attempt < self.max_attempts
                and request.rate_for_deadline(retry_at) <= request.max_rate * (1 + 1e-12)
            ):
                retries_used += 1
                heapq.heappush(queue, (retry_at, next(counter), attempt + 1, request))
            else:
                # Retry budget exhausted (capacity never opened up in time),
                # or no feasible retry instant remains before the deadline.
                reason = "capacity" if attempt >= self.max_attempts else "deadline"
                result.reject(request.rid, reason)
        result.meta["retries"] = retries_used
        return result
