"""Online heuristics for short-lived **flexible** requests (paper §5).

Both heuristics are *online*: decisions use only requests whose arrival time
has passed, plus the instantaneous port occupancy ``ali``/``ale``.  Because
every granted transfer starts at its decision instant and port occupancy can
only drop between decisions, an instantaneous capacity check at the decision
time is exact — no full timeline is needed.

- :class:`GreedyFlexible` (Algorithm 2): decide each request the moment it
  arrives; accept iff the policy rate fits on both ports *now*.
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

import numpy as np

from ..core.allocation import Allocation, ScheduleResult
from ..core.capacity import UTILISATION_LIMIT, slack_capacity
from ..core.errors import ConfigurationError
from ..core.problem import ProblemInstance
from ..core.request import Request
from .base import Scheduler
from .policies import BandwidthPolicy, MinRatePolicy

__all__ = ["GreedyFlexible", "WindowFlexible"]


class _PortOccupancy:
    """Instantaneous ``ali``/``ale`` bookkeeping with a departure heap."""

    def __init__(self, num_ingress: int, num_egress: int) -> None:
        self.ali = np.zeros(num_ingress)
        self.ale = np.zeros(num_egress)
        self._departures: list[tuple[float, int, int, int, float]] = []

    def release_until(self, t: float) -> None:
        """Reclaim bandwidth of transfers finished at or before ``t``.

        Eq. 1 constrains ``σ(r) ≤ t < τ(r)``: at ``t = τ`` the transfer no
        longer occupies its ports, so departures at exactly ``t`` free up.
        """
        while self._departures and self._departures[0][0] <= t:
            _, _, ingress, egress, bw = heapq.heappop(self._departures)
            self.ali[ingress] -= bw
            self.ale[egress] -= bw

    def fits(self, request: Request, bw: float, platform) -> bool:
        cap_in = platform.bin(request.ingress)
        cap_out = platform.bout(request.egress)
        return (
            self.ali[request.ingress] + bw <= slack_capacity(cap_in)
            and self.ale[request.egress] + bw <= slack_capacity(cap_out)
        )

    def admit(self, request: Request, bw: float, sigma: float) -> Allocation:
        alloc = Allocation.for_request(request, bw, sigma)
        self.ali[request.ingress] += bw
        self.ale[request.egress] += bw
        heapq.heappush(
            self._departures,
            (alloc.tau, request.rid, request.ingress, request.egress, bw),
        )
        return alloc

    def cost(self, request: Request, bw: float, platform) -> float:
        """Algorithm 3's cost: worst post-acceptance port utilisation."""
        util_in = (self.ali[request.ingress] + bw) / platform.bin(request.ingress)
        util_out = (self.ale[request.egress] + bw) / platform.bout(request.egress)
        return max(util_in, util_out)


@dataclass
class GreedyFlexible(Scheduler):
    """Algorithm 2: first-come-first-serve online admission."""

    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)

    def __post_init__(self) -> None:
        self.name = f"greedy[{self.policy.name}]"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        result = self._new_result(policy=self.policy.name)
        platform = problem.platform
        occupancy = _PortOccupancy(platform.num_ingress, platform.num_egress)
        for request in problem.requests.sorted_by_arrival():
            sigma = request.t_start
            occupancy.release_until(sigma)
            bw = self.policy.rate(request.volume, request.t_end, request.max_rate, sigma)
            if bw is None:
                result.reject(request.rid, "deadline")
            elif occupancy.fits(request, bw, platform):
                result.accept(occupancy.admit(request, bw, sigma))
            else:
                result.reject(request.rid, "capacity")
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
        occupancy = _PortOccupancy(platform.num_ingress, platform.num_egress)
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

            occupancy.release_until(decision_time)

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

            # Vectorised packing rounds: recomputing every candidate's cost
            # per accept is the hot loop of the whole scheduler (it was
            # O(|pool|²) in Python); one numpy pass per accepted request
            # keeps the exact (cost, rid) selection order.
            ing = np.fromiter((r.ingress for r, _ in pool), dtype=np.int64, count=len(pool))
            egr = np.fromiter((r.egress for r, _ in pool), dtype=np.int64, count=len(pool))
            bws = np.fromiter((bw for _, bw in pool), dtype=np.float64, count=len(pool))
            rids = np.fromiter((r.rid for r, _ in pool), dtype=np.int64, count=len(pool))
            cap_in = platform.ingress_capacity[ing]
            cap_out = platform.egress_capacity[egr]
            alive = np.ones(len(pool), dtype=bool)

            while np.any(alive):
                costs = np.maximum(
                    (occupancy.ali[ing] + bws) / cap_in,
                    (occupancy.ale[egr] + bws) / cap_out,
                )
                costs[~alive] = np.inf
                cheapest = costs.min()
                if cheapest > UTILISATION_LIMIT:
                    # The cheapest candidate would overflow a port: nothing
                    # else fits either; reject all remaining candidates.
                    for k in np.flatnonzero(alive):
                        result.reject(pool[k][0].rid, "capacity")
                    break
                ties = np.flatnonzero(costs == cheapest)
                best = int(ties[np.argmin(rids[ties])])
                request, bw = pool[best]
                alive[best] = False
                result.accept(occupancy.admit(request, bw, decision_time))
        self._observe_schedule(problem, result)
        return result
