"""Offline local search over admission orderings.

The SLOTS/GREEDY heuristics are one-pass: the order in which requests are
considered fully determines the accept set.  This module searches that
order space — a classic "heuristic + local search" upgrade for offline
instances where decision latency does not matter (e.g. planning tomorrow's
transfer campaign overnight).

A candidate solution is a permutation of the requests; it is decoded by a
greedy ledger insertion (rigid: fixed window/rate; flexible: earliest
feasible start as in :class:`~repro.schedulers.advance.EarliestStartFlexible`).
Moves relocate a single request to a random position; an improvement-only
acceptance rule with random restarts keeps the search simple and
monotone.  The decoded schedule is always feasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.allocation import Allocation, ScheduleResult
from ..core.errors import ConfigurationError, InternalInvariantError
from ..core.ledger import PortLedger
from ..core.problem import ProblemInstance
from ..core.request import Request
from ..obs.telemetry import get_telemetry
from .advance import book_ahead
from .base import Scheduler
from .policies import BandwidthPolicy, MinRatePolicy

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


def _decode_flexible(
    problem: ProblemInstance, order: list[Request], policy: BandwidthPolicy
) -> ScheduleResult:
    result = ScheduleResult(scheduler="localsearch-decode")
    ledger = PortLedger(problem.platform)
    for request in order:
        allocation, _ = book_ahead(ledger, request, policy)
        if allocation is not None:
            result.accept(allocation)
        else:
            result.reject(request.rid)
    return result


@dataclass
class LocalSearchScheduler(Scheduler):
    """Relocation-move local search over the admission order.

    Parameters
    ----------
    mode:
        ``"rigid"`` or ``"flexible"`` — picks the decoder.
    iterations:
        Total relocation moves tried (across restarts).
    restarts:
        Number of independent starting permutations.
    policy:
        Bandwidth policy for the flexible decoder.
    seed:
        Seed of the search's own randomness (results are deterministic for
        a fixed seed).
    """

    mode: str = "rigid"
    iterations: int = 400
    restarts: int = 3
    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("rigid", "flexible"):
            raise ConfigurationError(f"mode must be 'rigid' or 'flexible', got {self.mode!r}")
        if self.iterations < 0 or self.restarts < 1:
            raise ConfigurationError("need iterations >= 0 and restarts >= 1")
        self.name = f"localsearch-{self.mode}"

    def _decode(self, problem: ProblemInstance, order: list[Request]) -> ScheduleResult:
        if self.mode == "rigid":
            return _decode_rigid(problem, order)
        return _decode_flexible(problem, order, self.policy)

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        requests = list(problem.requests)
        if self.mode == "rigid":
            for request in requests:
                if not request.is_rigid:
                    raise ConfigurationError(
                        f"request {request.rid} is flexible; use mode='flexible'"
                    )
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
            current = self._decode(problem, order)
            decodes += 1
            for _ in range(per_restart):
                i = int(rng.integers(len(order)))
                j = int(rng.integers(len(order)))
                if i == j:
                    continue
                candidate = list(order)
                moved = candidate.pop(i)
                candidate.insert(j, moved)
                decoded = self._decode(problem, candidate)
                decodes += 1
                if decoded.num_accepted > current.num_accepted:
                    order, current = candidate, decoded
            if best is None or current.num_accepted > best.num_accepted:
                best = current

        if best is None:
            raise InternalInvariantError("restarts >= 1 yet no candidate was decoded")
        best.scheduler = self.name
        best.meta = {"iterations": self.iterations, "restarts": self.restarts, "mode": self.mode}
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "scheduler_decodes_total",
                "Permutations decoded by the local search, per scheduler.",
            ).inc(float(decodes), scheduler=self.name)
        self._observe_schedule(problem, best)
        return best
