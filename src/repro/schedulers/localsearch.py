"""Offline local search over admission orderings.

The SLOTS/GREEDY heuristics are one-pass: the order in which requests are
considered fully determines the accept set.  This module searches that
order space — a classic "heuristic + local search" upgrade for offline
instances where decision latency does not matter (e.g. planning tomorrow's
transfer campaign overnight).

A candidate solution is a permutation of rigid requests; it is decoded by
a greedy ledger insertion at each request's fixed window and rate.
Moves relocate a single request to a random position; an improvement-only
acceptance rule with random restarts keeps the search simple and
monotone.  The decoded schedule is always feasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.allocation import Allocation, ScheduleResult
from ..core.errors import ConfigurationError, InternalInvariantError
from ..core.ledger import PortLedger
from ..core.problem import ProblemInstance
from ..core.request import Request
from ..obs.telemetry import get_telemetry
from .base import Scheduler

__all__ = ["LocalSearchScheduler"]


def _decode_rigid(problem: ProblemInstance, order: list[Request]) -> ScheduleResult:
    result = ScheduleResult(scheduler="localsearch-decode")
    ledger = PortLedger(problem.platform)
    for request in order:
        bw = request.min_rate
        if ledger.fits(request.ingress, request.egress, request.t_start, request.t_end, bw):
            ledger.allocate(request.ingress, request.egress, request.t_start, request.t_end, bw)
            result.accept(Allocation.for_request(request, bw))
        else:
            result.reject(request.rid)
    return result


@dataclass
class LocalSearchScheduler(Scheduler):
    """Relocation-move local search over the admission order.

    Parameters
    ----------
    iterations:
        Total relocation moves tried (across restarts).
    restarts:
        Number of independent starting permutations.
    seed:
        Seed of the search's own randomness (results are deterministic for
        a fixed seed).
    """

    iterations: int = 400
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0 or self.restarts < 1:
            raise ConfigurationError("need iterations >= 0 and restarts >= 1")
        self.name = "localsearch-rigid"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        requests = list(problem.requests)
        for request in requests:
            if not request.is_rigid:
                raise ConfigurationError(f"request {request.rid} is flexible")
        if not requests:
            result = self._new_result()
            self._observe_schedule(problem, result)
            return result

        rng = np.random.default_rng(self.seed)
        budget = self.iterations
        per_restart = max(1, budget // self.restarts)

        decodes = 0
        best: ScheduleResult | None = None
        for restart in range(self.restarts):
            if restart == 0:
                # Seed the search with the natural FCFS order: the result
                # can then never be worse than the one-pass heuristic.
                order = sorted(requests, key=lambda r: (r.t_start, r.min_rate, r.rid))
            else:
                order = list(requests)
                rng.shuffle(order)  # type: ignore[arg-type]
            current = _decode_rigid(problem, order)
            decodes += 1
            for _ in range(per_restart):
                i = int(rng.integers(len(order)))
                j = int(rng.integers(len(order)))
                if i == j:
                    continue
                candidate = list(order)
                moved = candidate.pop(i)
                candidate.insert(j, moved)
                decoded = _decode_rigid(problem, candidate)
                decodes += 1
                if decoded.num_accepted > current.num_accepted:
                    order, current = candidate, decoded
            if best is None or current.num_accepted > best.num_accepted:
                best = current

        if best is None:
            raise InternalInvariantError("restarts >= 1 yet no candidate was decoded")
        best.scheduler = self.name
        best.meta = {"iterations": self.iterations, "restarts": self.restarts}
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "scheduler_decodes_total",
                "Permutations decoded by the local search, per scheduler.",
            ).inc(float(decodes), scheduler=self.name)
        self._observe_schedule(problem, best)
        return best
