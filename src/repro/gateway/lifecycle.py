"""The reservation lifecycle: what happens to a reservation after admission.

:class:`~repro.gateway.gateway.Gateway` writes a
:class:`~repro.gateway.tickets.TicketTable` row per submission; how one is released,
re-shaped, displaced, re-admitted, snapshotted, journaled and replayed
is written here, against the gateway's
:class:`~repro.gateway.twophase.TwoPhaseCoordinator`.  Every verb follows
one protocol (docs/FAULTS.md, "When an entry is appended"):

1. **validate** against state that settling cannot change — a bad call
   raises here, leaving ``snapshot()`` and the journal as they were (a
   submission: :func:`check_submission`, which returns its scalars, for
   ``Gateway.submit`` and the serve edge alike: no ``Request`` is built);
2. **settle** — advance the clock and flush the open batch;
3. **journal** the operation, then **apply** it — nothing visible in
   ``snapshot()`` changes without an entry written in the same call.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from ..core.allocation import Allocation
from ..core.booking import deadline_tolerance, shape_profile
from ..core.capacity import CAPACITY_SLACK
from ..core.errors import ConfigurationError, InternalInvariantError, InvalidRequestError
from ..core.ledger import Degradation
from ..core.platform import Platform
from ..core.profile import RateProfile, Segment
from ..core.request import RATE_TOLERANCE, Request, check_request
from .tickets import DECIDED, ENDED_BY, ReservationState, Ticket, TicketTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from .journal import JournalEntry
    from .twophase import TwoPhaseCoordinator

__all__ = [
    "JOURNAL_OPS",
    "check_submission",
    "displace_overflow",
    "displacement_victim",
    "new_degradation",
    "readmission_candidate",
    "replay_ops",
    "reservation_rows",
    "reshape_tail",
    "terminate",
]

def check_submission(
    platform: Platform, rid: int, ingress: int, egress: int, volume: float, deadline: float,
    at: float, max_rate: float | None, profile: RateProfile | list[Any] | None,
) -> tuple[float, RateProfile | None]:  # fmt: skip
    """Validate one submission arriving at ``at``: its ``max_rate`` (the
    pair's bottleneck capacity when ``None``) and its wanted shape.

    The one validator of both entry points: :meth:`Gateway.submit
    <repro.gateway.gateway.Gateway.submit>` asks it at the submission
    instant, the serve edge at the client's arrival instant (the gateway
    re-tests only the window, at the wave's).  Raises — before any rid is
    consumed — ``InvalidRequestError`` for a malformed submission (unknown
    port, non-positive volume, empty or unreachable window, a profile that
    does not deliver ``volume``; ``rid`` is the one its message names).
    """
    if not (0 <= ingress < platform.num_ingress and 0 <= egress < platform.num_egress):
        raise InvalidRequestError(f"unknown port in pair ({ingress}, {egress})")
    if max_rate is None:
        max_rate = platform.bottleneck(ingress, egress)
    wanted = None if profile is None else RateProfile.maybe_from(profile)
    if wanted is not None and not wanted.conserves(volume):
        raise InvalidRequestError(
            f"profile delivers {wanted.volume} MB but the submission asks for {volume} MB"
        )
    if not (
        volume > 0
        and deadline > at
        and max_rate > 0
        and max_rate >= volume / (deadline - at) * (1 - RATE_TOLERANCE)
    ):
        check_request(rid, volume, at, deadline, max_rate)  # raises, naming the failed test
    return max_rate, wanted


def new_degradation(
    platform: Platform, *, side: str, port: int, amount: float, start: float, end: float
) -> Degradation:
    """Validate one capacity reduction (``ConfigurationError`` when bad)."""
    degradation = Degradation(side=side, port=port, t0=start, t1=end, amount=amount)
    ports = platform.num_ingress if side == "ingress" else platform.num_egress
    if not (0 <= port < ports):
        raise ConfigurationError(f"no {side} port {port} on this platform")
    return degradation


def _unconsumed(alloc: Allocation, now: float) -> tuple[Segment, ...]:
    """The segments of ``[max(now, σ), τ)`` an allocation still holds."""
    start = max(now, alloc.sigma)
    return tuple((max(start, t0), t1, rate) for t0, t1, rate in alloc.segments() if t1 > start)


def terminate(
    reservation: Ticket,
    now: float,
    how: ReservationState,
    coordinator: TwoPhaseCoordinator,
) -> bool:
    """End a live reservation early: free its tail, stamp it ``how``.

    ``how`` is ``CANCELLED``, ``ABORTED`` or ``DISPLACED``.  Returns False
    (nothing touched) when the reservation is not live — rejected,
    completed or already ended.  The one writer of the table's stamp
    columns once a row is written.
    """
    code = ENDED_BY.get(how)
    if code is None:
        raise InternalInvariantError(f"{how} does not end a reservation early")
    alloc = reservation.live_allocation(now)
    if alloc is None:
        return False
    tail = _unconsumed(alloc, now)
    if tail:
        coordinator.release_pair(alloc.ingress, alloc.egress, tail)
    tickets, i = reservation.table, reservation.rid - reservation.table.base
    tickets.ended_at[i], tickets.ended_by[i] = now, code
    return True


def reshape_tail(reservation: Ticket, now: float, coordinator: TwoPhaseCoordinator) -> bool:
    """Release + re-carve one live reservation's unconsumed tail.

    The tail returns to its shards and the still undelivered volume is
    shaped into the pair's current residual capacity
    (:func:`~repro.core.booking.shape_profile`); the consumed head is
    preserved exactly.  On failure the original tail is restored and the
    shards left as found.
    """
    alloc = reservation.live_allocation(now)
    if alloc is None:
        return False
    old_tail = _unconsumed(alloc, now)
    if not old_tail:
        return False
    release_from = max(now, alloc.sigma)
    residual = reservation.request.volume - alloc.carried_before(release_from)
    try:
        target = Request(
            rid=reservation.rid,
            ingress=alloc.ingress,
            egress=alloc.egress,
            volume=residual,
            t_start=release_from,
            t_end=reservation.request.t_end,
            max_rate=reservation.request.max_rate,
        )
    except InvalidRequestError:
        return False  # nothing left to carry, or no valid window to carry it in
    coordinator.release_pair(alloc.ingress, alloc.egress, old_tail)
    shaped = shape_profile(coordinator, target, not_before=release_from)
    if shaped is None:
        coordinator.restore_pair(alloc.ingress, alloc.egress, old_tail)
        return False
    head = RateProfile(alloc.segments()).head_until(release_from)
    coordinator.restore_pair(alloc.ingress, alloc.egress, shaped.segments)
    reservation.table.grant(reservation.rid, alloc.with_profile(head.concat(shaped)))
    return True


def displacement_victim(
    tickets: TicketTable, degradation: Degradation, now: float
) -> Ticket | None:
    """Latest-starting live reservation using the degraded port in its window."""
    ports = tickets.ingress if degradation.side == "ingress" else tickets.egress
    best: int | None = None
    best_key: tuple[float, int] | None = None
    for rid in tickets.rids(DECIDED):
        i = rid - tickets.base
        if ports[i] != degradation.port or not tickets.live(rid, now):
            continue
        # Only the not-yet-consumed part [max(now, σ), τ) still holds
        # capacity; it must overlap the degraded window.
        sigma = tickets.sigma[i]
        if max(now, sigma) >= degradation.t1 or tickets.tau[i] <= degradation.t0:
            continue
        key = (sigma, rid)
        if best_key is None or key > best_key:
            best, best_key = rid, key
    return None if best is None else Ticket(tickets, best)


def displace_overflow(
    tickets: TicketTable,
    degradation: Degradation,
    now: float,
    coordinator: TwoPhaseCoordinator,
    *,
    malleable: bool,
) -> tuple[list[Ticket], list[int]]:
    """Displace until the degraded port fits under its remaining capacity.

    Stranded holds in the window go first (no reservation owns them).
    Victims go latest-start-first.  With ``malleable`` each victim's tail
    is first re-shaped around the degraded window (once per rid; a
    re-shaped reservation that still blocks the port is displaced later).
    Returns ``(displaced, reshaped)``: the displaced reservations and the
    rids re-shaped instead.
    """
    side, port, t0, t1 = degradation.side, degradation.port, degradation.t0, degradation.t1
    degraded = coordinator.broker_for(side, port).port(side, port)
    tol = CAPACITY_SLACK * max(1.0, degraded.capacity)
    displaced: list[Ticket] = []
    reshaped: list[int] = []
    if degraded.overcommit_on(t0, t1) > tol:
        coordinator.release_stranded(side, port, t0, t1)
    while degraded.overcommit_on(t0, t1) > tol:
        victim = displacement_victim(tickets, degradation, now)
        if victim is None:
            break  # remaining overcommit is not ours to resolve
        if malleable and victim.rid not in reshaped and reshape_tail(victim, now, coordinator):
            reshaped.append(victim.rid)
            continue
        terminate(victim, now, ReservationState.DISPLACED, coordinator)
        displaced.append(victim)
    return displaced, reshaped


def readmission_candidate(original: Request, rid: int, now: float) -> Request | None:
    """A backlogged request re-offered now, its window clipped to ``now``.

    ``None`` means the entry is to be pruned: the deadline can no longer
    be met even at ``MaxRate``, or the clipped window lands inside the
    deadline tolerance and is no longer a structurally valid request.
    ``rid`` is only *named* here — the caller consumes it from its
    counter once it decides to use the candidate.
    """
    if now + original.min_duration > original.t_end + deadline_tolerance(original.t_end):
        return None
    try:
        o = original
        return Request(rid, o.ingress, o.egress, o.volume, max(now, o.t_start), o.t_end, o.max_rate)
    except InvalidRequestError:
        return None


def reservation_rows(reservations: Iterable[Ticket]) -> list[dict[str, Any]]:
    """The ``reservations`` section of a plane's ``snapshot()``."""
    return [
        {
            "rid": r.rid,
            "request": r.request.to_dict(),
            "allocation": r.allocation.to_dict() if r.allocation else None,
            "cancelled_at": r.cancelled_at,
            "aborted_at": r.aborted_at,
            "displaced_at": r.displaced_at,
            "origin": r.origin,
            "reject_reason": r.reject_reason.value if r.reject_reason else None,
        }
        for r in reservations
    ]


#: The journal vocabulary: op name → the gateway verb that wrote it.  An
#: entry's arguments are that verb's keywords (plus ``now``), so replay is
#: the same call again.
_VERBS = {
    "submit": "submit",
    "cancel": "cancel",
    "abort": "abort",
    "reshape": "reshape",
    "degrade": "degrade",
    "drain": "drain",
    "crash": "crash_broker",
    "restart": "restart_broker",
}

#: Every operation name a journal may contain: the verbs, plus
#: ``checkpoint`` — the gateway's whole state at that point, which changes
#: nothing and is only read by ``Gateway.resume``.
JOURNAL_OPS = frozenset({*_VERBS, "checkpoint"})


def replay_ops(plane: Any, entries: Iterable[JournalEntry]) -> None:
    """Re-apply journaled operations, in order, to ``plane`` (a fresh one,
    or one restored from the checkpoint just before ``entries``);
    checkpoints are skipped."""
    for entry in entries:
        if entry.op == "checkpoint":
            continue
        args = dict(entry.args)
        if entry.op == "submit":
            # The gateway records the rid it assigned (`grid-obs explain`
            # finds a request's entry by it); replay derives it again.
            args.pop("rid", None)
        getattr(plane, _VERBS[entry.op])(now=entry.now, **args)
