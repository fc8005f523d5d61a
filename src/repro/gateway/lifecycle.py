"""The reservation lifecycle: what happens to a reservation after admission.

:class:`~repro.gateway.gateway.Gateway` hands out a :class:`Reservation`
(its :class:`~repro.gateway.gateway.Ticket`); how one is released,
re-shaped, displaced, re-admitted, snapshotted, journaled and replayed
is written here, against the gateway's
:class:`~repro.gateway.twophase.TwoPhaseCoordinator`.  Every verb follows
one protocol (docs/FAULTS.md, "When an entry is appended"):

1. **validate** against state that settling cannot change — a bad call
   raises here, leaving ``snapshot()`` and the journal as they were;
2. **settle** — advance the clock and flush the open batch;
3. **journal** the operation, then **apply** it — nothing visible in
   ``snapshot()`` changes without an entry written in the same call.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core.allocation import Allocation
from ..core.booking import RejectReason, deadline_tolerance, shape_profile
from ..core.capacity import CAPACITY_SLACK
from ..core.errors import ConfigurationError, InternalInvariantError, InvalidRequestError
from ..core.ledger import Degradation
from ..core.platform import Platform
from ..core.profile import RateProfile, Segment
from ..core.request import Request

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from .journal import Journal
    from .twophase import TwoPhaseCoordinator

__all__ = [
    "JOURNAL_OPS",
    "Reservation",
    "ReservationState",
    "displace_overflow",
    "displacement_victim",
    "new_degradation",
    "new_request",
    "readmission_candidate",
    "replay_ops",
    "reservation_rows",
    "reshape_tail",
    "terminate",
]

class ReservationState(enum.Enum):
    """Lifecycle of a reservation."""

    REJECTED = "rejected"
    CONFIRMED = "confirmed"   # booked, transfer not yet started
    ACTIVE = "active"         # transfer in progress
    COMPLETED = "completed"   # transfer window fully elapsed
    CANCELLED = "cancelled"
    ABORTED = "aborted"       # transfer failed mid-flight
    DISPLACED = "displaced"   # cancelled by a port outage/degradation


@dataclass
class Reservation:
    """A client's handle on one submitted transfer."""

    rid: int
    request: Request
    #: The admitted window and rate; ``None`` when rejected (on a gateway
    #: :class:`~repro.gateway.gateway.Ticket`, also while still undecided).
    allocation: Allocation | None = None
    cancelled_at: float | None = None
    aborted_at: float | None = None
    displaced_at: float | None = None
    #: rid of the reservation this one re-admits or rebooks, if any.
    origin: int | None = None
    #: Why admission failed (``None`` on confirmed reservations).
    reject_reason: RejectReason | None = None

    @property
    def confirmed(self) -> bool:
        """Was the reservation admitted?"""
        return self.allocation is not None

    @property
    def terminated_at(self) -> float | None:
        """When the reservation ended early (cancel/abort/displacement)."""
        for t in (self.cancelled_at, self.aborted_at, self.displaced_at):
            if t is not None:
                return t
        return None

    @property
    def carried(self) -> float:
        """MB actually delivered before the transfer ended."""
        if self.allocation is None:
            return 0.0
        stop = self.terminated_at
        end = self.allocation.tau if stop is None else min(stop, self.allocation.tau)
        return self.allocation.carried_before(end)

    @property
    def residual(self) -> float:
        """MB still undelivered when the reservation ended early."""
        return max(0.0, self.request.volume - self.carried)

    def state(self, now: float) -> ReservationState:
        """Lifecycle state as of time ``now``."""
        if self.allocation is None:
            return ReservationState.REJECTED
        if self.aborted_at is not None:
            return ReservationState.ABORTED
        if self.displaced_at is not None:
            return ReservationState.DISPLACED
        if self.cancelled_at is not None:
            return ReservationState.CANCELLED
        if now < self.allocation.sigma:
            return ReservationState.CONFIRMED
        if now < self.allocation.tau:
            return ReservationState.ACTIVE
        return ReservationState.COMPLETED

    def live_allocation(self, now: float) -> Allocation | None:
        """The allocation while part of it is still unconsumed, else ``None``
        (rejected, completed, or ended early)."""
        if self.state(now) in (ReservationState.CONFIRMED, ReservationState.ACTIVE):
            return self.allocation
        return None


def new_request(
    platform: Platform,
    rid: int,
    require: Callable[[int], object],
    *,
    ingress: int,
    egress: int,
    volume: float,
    deadline: float,
    now: float,
    max_rate: float | None,
    origin: int | None,
    profile: RateProfile | list[Any] | None,
) -> tuple[Request, RateProfile | None, dict[str, Any]]:
    """Validate one submission: its request, wanted shape and journal entry.

    Raises — before any rid is consumed — ``InvalidRequestError`` for a
    malformed submission (unknown port, non-positive volume, empty or
    unreachable window, a profile that does not deliver ``volume``);
    ``require(origin)`` raises ``KeyError`` for a rid the plane does not
    know.  ``max_rate`` defaults to the pair's bottleneck capacity.  The
    entry holds the ``submit`` keywords that reproduce the request.
    """
    if not (0 <= ingress < platform.num_ingress and 0 <= egress < platform.num_egress):
        raise InvalidRequestError(f"unknown port in pair ({ingress}, {egress})")
    if max_rate is None:
        max_rate = platform.bottleneck(ingress, egress)
    if origin is not None:
        require(origin)
    wanted = RateProfile.maybe_from(profile)
    if wanted is not None and not wanted.conserves(volume):
        raise InvalidRequestError(
            f"profile delivers {wanted.volume} MB but the submission asks for {volume} MB"
        )
    request = Request(
        rid=rid,
        ingress=ingress,
        egress=egress,
        volume=volume,
        t_start=now,
        t_end=deadline,
        max_rate=max_rate,
    )
    entry: dict[str, Any] = {
        "ingress": ingress,
        "egress": egress,
        "volume": volume,
        "deadline": deadline,
        "max_rate": max_rate,
        "origin": origin,
    }
    if wanted is not None:
        # Key present only for stepwise submissions, so constant-rate
        # journals keep their pre-profile bytes.
        entry["profile"] = wanted.to_list()
    return request, wanted, entry


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
    reservation: Reservation,
    now: float,
    how: ReservationState,
    coordinator: TwoPhaseCoordinator,
) -> bool:
    """End a live reservation early: free its tail, stamp it ``how``.

    ``how`` is ``CANCELLED``, ``ABORTED`` or ``DISPLACED``.  Returns False
    (nothing touched) when the reservation is not live — rejected,
    completed or already ended.
    """
    alloc = reservation.live_allocation(now)
    if alloc is None:
        return False
    tail = _unconsumed(alloc, now)
    if tail:
        coordinator.release_pair(alloc.ingress, alloc.egress, tail)
    if how is ReservationState.CANCELLED:
        reservation.cancelled_at = now
    elif how is ReservationState.ABORTED:
        reservation.aborted_at = now
    elif how is ReservationState.DISPLACED:
        reservation.displaced_at = now
    else:
        raise InternalInvariantError(f"{how} does not end a reservation early")
    return True


def reshape_tail(reservation: Reservation, now: float, coordinator: TwoPhaseCoordinator) -> bool:
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
    reservation.allocation = alloc.with_profile(head.concat(shaped))
    return True


def displacement_victim(
    reservations: Iterable[Reservation], degradation: Degradation, now: float
) -> Reservation | None:
    """Latest-starting live reservation using the degraded port in its window."""
    best: Reservation | None = None
    best_key: tuple[float, int] | None = None
    for reservation in reservations:
        alloc = reservation.live_allocation(now)
        if alloc is None:
            continue
        on_side = alloc.ingress if degradation.side == "ingress" else alloc.egress
        if on_side != degradation.port:
            continue
        # Only the not-yet-consumed part [max(now, σ), τ) still holds
        # capacity; it must overlap the degraded window.
        if max(now, alloc.sigma) >= degradation.t1 or alloc.tau <= degradation.t0:
            continue
        key = (alloc.sigma, reservation.rid)
        if best_key is None or key > best_key:
            best, best_key = reservation, key
    return best


def displace_overflow(
    reservations: Iterable[Reservation],
    degradation: Degradation,
    now: float,
    platform: Platform,
    coordinator: TwoPhaseCoordinator,
    *,
    malleable: bool,
) -> tuple[list[Reservation], list[int]]:
    """Displace until the degraded port fits under its remaining capacity.

    Victims go latest-start-first.  With ``malleable`` each victim's tail
    is first re-shaped around the degraded window (once per rid; a
    re-shaped reservation that still blocks the port is displaced later).
    Returns ``(displaced, reshaped)``: the displaced reservations and the
    rids re-shaped instead.
    """
    side, port = degradation.side, degradation.port
    cap = platform.bin(port) if side == "ingress" else platform.bout(port)
    tol = CAPACITY_SLACK * max(1.0, cap)
    displaced: list[Reservation] = []
    reshaped: list[int] = []
    while coordinator.overcommit_on(side, port, degradation.t0, degradation.t1) > tol:
        victim = displacement_victim(reservations, degradation, now)
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
        return Request(
            rid=rid,
            ingress=original.ingress,
            egress=original.egress,
            volume=original.volume,
            t_start=max(now, original.t_start),
            t_end=original.t_end,
            max_rate=original.max_rate,
        )
    except InvalidRequestError:
        return None


def reservation_rows(reservations: Iterable[Reservation]) -> list[dict[str, Any]]:
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

#: Every operation name a journal may contain.
JOURNAL_OPS = frozenset(_VERBS)


def replay_ops(plane: Any, journal: Journal) -> None:
    """Re-apply every journaled operation, in order, to a fresh ``plane``."""
    for entry in journal:
        args = dict(entry.args)
        if entry.op == "submit":
            # The gateway records the rid it assigned (`grid-obs explain`
            # finds a request's entry by it); replay derives it again.
            args.pop("rid", None)
        getattr(plane, _VERBS[entry.op])(now=entry.now, **args)
