"""Book-ahead scheduling: exploit flexible start times (§2.3, [6]).

The published online heuristics only ever start an accepted transfer at
its decision instant, although the model (and the NP-completeness proof)
allows any start ``σ ∈ [t_s, t_f − vol/bw]``.  This module adds the
natural extension the paper's related work calls *malleable reservations*
(Burchard et al. [6]) and its conclusion calls "real-time resource
reservation": on arrival, search the ledger for the **earliest feasible
start** within the window and book the bandwidth ahead of time.

Unlike Algorithms 2–3, this requires each port to keep a full future
timeline (a :class:`~repro.core.ledger.PortLedger`) rather than a scalar
``ali``/``ale`` — the cost of the extra accept rate is state and lookups
logarithmic in the number of booked windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.allocation import Allocation, ScheduleResult
from ..core.booking import RejectReason, _first_fit, shape_profile
from ..core.ledger import PortLedger
from ..core.problem import ProblemInstance
from ..core.request import Request
from ..obs.telemetry import get_telemetry
from .base import Scheduler
from .policies import BandwidthPolicy, MinRatePolicy

__all__ = ["EarliestStartFlexible", "GuaranteedProfile", "book_ahead"]


def book_ahead(
    ledger: PortLedger, request: Request, policy: BandwidthPolicy
) -> tuple[Allocation | None, int]:
    """Book ``request`` at its earliest feasible start, if it has one.

    The candidate walk is :func:`repro.core.booking.earliest_fit`'s, under
    the offline schedulers' own deadline bound ``t_end * (1 + 1e-12)``.
    Returns the committed allocation (``None`` when no start fits) and the
    number of candidate starts examined.
    """
    allocation, examined, _ = _first_fit(
        ledger,
        request,
        policy.bind(request),
        request.t_start,
        request.t_end * (1 + 1e-12),
    )
    if allocation is not None:
        ledger.allocate(
            allocation.ingress, allocation.egress, allocation.sigma, allocation.tau, allocation.bw
        )
    return allocation, examined


@dataclass
class EarliestStartFlexible(Scheduler):
    """Online book-ahead admission with earliest-feasible-start search.

    On each arrival, candidate start times are the arrival instant plus
    every ledger breakpoint inside the request's feasible start range
    (feasibility of a fixed-rate block only changes at breakpoints).  The
    first candidate where the policy rate fits both ports for the whole
    transfer is booked; if none fits, the request is rejected.

    With every candidate rejected the scheduler behaves exactly like
    GREEDY, so its accept rate dominates GREEDY's on any instance where
    deferring ever helps.
    """

    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)

    def __post_init__(self) -> None:
        self.name = f"bookahead[{self.policy.name}]"

    def _admit(
        self, ledger: PortLedger, request: Request
    ) -> tuple[Allocation | None, int, str]:
        """Decide one arrival against the live ledger (committing on accept).

        Returns ``(allocation, candidates_examined, reject_reason)`` —
        the allocation is ``None`` on rejection.  Subclasses override this
        to append fallback admission modes after the constant-rate search.
        """
        allocation, examined = book_ahead(ledger, request, self.policy)
        return allocation, examined, "" if allocation is not None else "capacity"

    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        result = self._new_result(policy=self.policy.name)
        ledger = PortLedger(problem.platform)
        tel = get_telemetry()
        for request in problem.requests.sorted_by_arrival():
            allocation, examined, reason = self._admit(ledger, request)
            if allocation is not None:
                result.accept(allocation)
            else:
                result.reject(request.rid, reason)
            if tel.enabled:
                tel.metrics.counter(
                    "scheduler_candidates_examined_total",
                    "Candidate starts visited by book-ahead searches (starts a jump "
                    "skipped are not counted), per scheduler.",
                ).inc(float(examined), scheduler=self.name)
        self._observe_schedule(problem, result)
        return result


@dataclass
class GuaranteedProfile(EarliestStartFlexible):
    """Book-ahead admission with a shaped stepwise-profile fallback.

    Runs exactly the parent's earliest-feasible-start search first, so a
    request any constant rate can serve books the same allocation the
    ``bookahead`` family would (decision-identical on those requests).
    Only when *every* constant-rate candidate is rejected does the variant
    ask :func:`~repro.core.booking.shape_profile` to carve a stepwise,
    volume-conserving :class:`~repro.core.profile.RateProfile` out of the
    pair's residual capacity valleys — accepting transfers that fit the
    window only at a time-varying rate.  Requests even shaping cannot
    place reject as ``profile-infeasible``, keeping the two admission
    models separable in reject tallies.
    """

    def __post_init__(self) -> None:
        self.name = f"guaranteed-profile[{self.policy.name}]"

    def _admit(
        self, ledger: PortLedger, request: Request
    ) -> tuple[Allocation | None, int, str]:
        allocation, examined, reason = super()._admit(ledger, request)
        if allocation is not None:
            return allocation, examined, reason
        shaped = shape_profile(ledger, request)
        if shaped is None:
            return None, examined, RejectReason.PROFILE_INFEASIBLE.value
        ledger.allocate_segments(request.ingress, request.egress, shaped.segments)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "scheduler_shaped_accepts_total",
                "Requests admitted via the shaped-profile fallback, per scheduler.",
            ).inc(scheduler=self.name)
        return Allocation.for_profile(request, shaped), examined, ""
