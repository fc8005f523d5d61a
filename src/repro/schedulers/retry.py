"""Client retry behaviour (§2.3): "stand the risk of being rejected and
try later".

The paper's customer model lets a rejected user resubmit while its window
still has room.  :class:`RetryGreedyFlexible` runs GREEDY's admission loop
(:func:`~repro.schedulers.flexible.book_on_arrival`) with an
exponential-backoff retry queue: a rejected request retries until its
deadline can no longer be met at ``MaxRate`` (rejected as ``"deadline"``)
or its retry budget runs out (rejected as ``"capacity"``).

Because a retry starts later, the deadline-implied rate floor grows at
each attempt: retrying users are admitted at progressively *higher* rates
— the natural incentive the paper's customer/provider discussion sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.problem import ProblemInstance
from ..core.allocation import ScheduleResult
from ..gateway.twophase import BackoffSchedule
from .base import Scheduler
from .flexible import book_on_arrival
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
        result.meta["retries"] = book_on_arrival(problem, self.policy, result, self._schedule)
        return result
