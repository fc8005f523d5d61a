"""Online heuristics for short-lived **flexible** requests (paper §5).

Both heuristics are *online*: decisions use only requests whose arrival time
has passed, plus the port occupancy ``ali``/``ale`` at the decision instant.
Each keeps a :class:`~repro.core.ledger.PortLedger` and books every granted
transfer over ``[σ, τ)`` on it, as every other scheduler does.  Decisions
are taken in time order and every transfer starts at its decision instant,
so every earlier booking starts at or before the current one: a port's
usage at the decision instant is its peak from then on (in floats too, since
a float sum of a subset of the bookings never exceeds the sum of the whole
set).  The ledger's timeline test over ``[σ, τ)`` therefore decides as the
paper's instantaneous ``ali + bw ≤ B_in`` test does.

- :class:`GreedyFlexible` (Algorithm 2): decide each request the moment it
  arrives; accept iff the policy rate fits on both ports *now*.  It is the
  client-retry loop of :class:`~repro.schedulers.retry.RetryGreedyFlexible`
  with one attempt.
- :class:`WindowFlexible` (Algorithm 3): batch arrivals into fixed-length
  decision intervals of length ``t_step``.  At each interval end, candidates
  are admitted in rounds: the candidate whose post-acceptance port
  utilisation ``cost(r) = max((ali+bw)/B_in, (ale+bw)/B_out)`` is smallest
  is admitted, until the cheapest candidate no longer fits (cost > 1), which
  rejects all remaining candidates.  (The paper's pseudo-code pops ``r``
  where ``r_min`` is clearly meant; we implement the intent.)

Deadline handling: starting a request later than ``t_s`` shrinks its window,
raising the rate needed to still finish by ``t_f``.  The policy is asked for
the rate from the actual start, so the granted rate is floored at that
deadline rate and the request is rejected when even ``MaxRate`` cannot meet
it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.allocation import Allocation, ScheduleResult
from ..core.capacity import UTILISATION_LIMIT
from ..core.errors import ConfigurationError
from ..core.ledger import PortLedger
from ..core.problem import ProblemInstance
from ..core.request import Request, deadline_rate
from .base import Scheduler
from .policies import BandwidthPolicy, MinRatePolicy

if TYPE_CHECKING:
    from ..gateway.twophase import BackoffSchedule

__all__ = ["GreedyFlexible", "WindowFlexible"]


def book_on_arrival(
    problem: ProblemInstance,
    policy: BandwidthPolicy,
    result: ScheduleResult,
    backoff: BackoffSchedule | None = None,
) -> int:
    """Decide every request of ``problem`` into ``result`` the moment it
    (re)arrives; the number of retries scheduled.

    Without ``backoff`` each request has one attempt (GREEDY).  With it, a
    request that does not fit retries ``backoff.delay(attempt)`` seconds
    later while attempts remain and its deadline is still reachable at
    ``MaxRate`` then.  A rejection is ``"capacity"`` once the attempts are
    spent and ``"deadline"`` when no rate is left.
    """
    ledger = PortLedger(problem.platform)
    fits, allocate, rate = ledger.fits, ledger.allocate, policy.rate
    # (time, seq, attempt, request); sorted, the arrivals are already a heap.
    queue = [(r.t_start, seq, 1, r) for seq, r in enumerate(problem.requests.sorted_by_arrival())]
    arrivals, retries = len(queue), 0
    while queue:
        now, _, attempt, request = heapq.heappop(queue)
        bw = rate(request.volume, request.t_end, request.max_rate, now)
        if bw is None:
            result.reject(request.rid, "deadline")
            continue
        ingress, egress = request.ingress, request.egress
        tau = now + request.volume / bw  # as Allocation.for_request derives it
        if fits(ingress, egress, now, tau, bw):
            allocate(ingress, egress, now, tau, bw)
            result.accept(Allocation(request.rid, ingress, egress, bw, now, tau))
        elif backoff is None or attempt == backoff.max_attempts:
            result.reject(request.rid, "capacity")
        else:
            retry_at = now + backoff.delay(attempt)
            if deadline_rate(request.volume, request.t_end, request.max_rate, retry_at) is None:
                result.reject(request.rid, "deadline")
            else:
                heapq.heappush(queue, (retry_at, arrivals + retries, attempt + 1, request))
                retries += 1
    return retries


@dataclass
class GreedyFlexible(Scheduler):
    """Algorithm 2: first-come-first-serve online admission."""

    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)

    def __post_init__(self) -> None:
        self.name = f"greedy[{self.policy.name}]"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        result = self._new_result(policy=self.policy.name)
        book_on_arrival(problem, self.policy, result)
        self._observe_schedule(problem, result)
        return result


@dataclass
class WindowFlexible(Scheduler):
    """Algorithm 3: interval-based batched admission.

    Parameters
    ----------
    t_step:
        Length of the decision interval in seconds; arrivals in
        ``[t, t + t_step)`` are decided together at ``t + t_step``.  Longer
        intervals give the cost-based packing more candidates to optimise
        over, at the price of a longer response time (§5.2).
    policy:
        Bandwidth assignment policy for accepted requests.
    """

    t_step: float = 400.0
    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)

    def __post_init__(self) -> None:
        if self.t_step <= 0:
            raise ConfigurationError(f"t_step must be positive, got {self.t_step}")
        self.name = f"window[{self.t_step:g}s,{self.policy.name}]"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        result = self._new_result(t_step=self.t_step, policy=self.policy.name)
        platform = problem.platform
        ledger = PortLedger(platform)
        arrivals = list(problem.requests.sorted_by_arrival())
        if not arrivals:
            return result

        t_begin = arrivals[0].t_start
        cursor = 0
        epoch = 0
        while cursor < len(arrivals):
            epoch += 1
            decision_time = t_begin + epoch * self.t_step
            candidates: list[Request] = []
            while cursor < len(arrivals) and arrivals[cursor].t_start < decision_time:
                candidates.append(arrivals[cursor])
                cursor += 1
            if not candidates:
                continue

            # Candidates whose policy rate no longer exists (deadline passed
            # beyond MaxRate) are rejected outright; the rest enter the
            # cost-ordered packing rounds.
            pool: list[tuple[Request, float]] = []
            for request in candidates:
                bw = self.policy.rate(request.volume, request.t_end, request.max_rate, decision_time)
                if bw is None:
                    result.reject(request.rid, "deadline")
                else:
                    pool.append((request, bw))
            if not pool:
                continue

            # ali / ale: each candidate port's usage at the decision instant,
            # read once, then raised by every accept of the interval.
            ali = {
                r.ingress: ledger.ingress_timeline(r.ingress).usage_at(decision_time)
                for r, _ in pool
            }
            ale = {
                r.egress: ledger.egress_timeline(r.egress).usage_at(decision_time)
                for r, _ in pool
            }
            caps = [(platform.bin(r.ingress), platform.bout(r.egress)) for r, _ in pool]

            def cost(k: int) -> float:
                request, bw = pool[k]
                cap_in, cap_out = caps[k]
                return max(
                    (ali[request.ingress] + bw) / cap_in, (ale[request.egress] + bw) / cap_out
                )

            # Within an interval usage only grows, so a cost only rises: a
            # popped entry whose recomputed cost is unchanged is the exact
            # (cost, rid) minimum over the pool, without a rescan per accept.
            heap = [(cost(k), r.rid, k) for k, (r, _) in enumerate(pool)]
            heapq.heapify(heap)
            while heap:
                stale, rid, k = heap[0]
                fresh = cost(k)
                if fresh != stale:
                    heapq.heapreplace(heap, (fresh, rid, k))
                    continue
                if fresh > UTILISATION_LIMIT:
                    # The cheapest candidate would overflow a port: nothing
                    # else fits either; reject all remaining candidates.
                    for left in sorted(k for _, _, k in heap):
                        result.reject(pool[left][0].rid, "capacity")
                    break
                heapq.heappop(heap)
                request, bw = pool[k]
                alloc = Allocation.for_request(request, bw, decision_time)
                # Algorithm 3's own test (cost <= UTILISATION_LIMIT) decided;
                # the kernel's form of it may differ by one ulp.
                ledger.allocate(
                    request.ingress, request.egress, decision_time, alloc.tau, bw, check=False
                )
                ali[request.ingress] += bw
                ale[request.egress] += bw
                result.accept(alloc)
        self._observe_schedule(problem, result)
        return result
