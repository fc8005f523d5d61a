"""Two-phase cross-shard reservation: prepare-hold → commit / abort.

A request whose ingress and egress live on different shards must change
two brokers' slices consistently.  The coordinator runs presumed-abort
two-phase commit:

1. **search** — earliest-fit over the pair's two authoritative
   :class:`~repro.core.ledger.Port`\\ s, one from each owning broker
   (shard-local pairs skip the protocol entirely and book atomically on
   their broker);
2. **prepare** — pin the chosen rate on the ingress broker, then the
   egress broker, as :class:`~repro.gateway.broker.Hold`\\ s with a TTL;
3. **commit** — both holds become committed bookings; or **abort** —
   every placed hold is released.

Failure semantics (what the fault drills exercise):

- a broker found down is retried per a
  :class:`~repro.schedulers.retry.BackoffSchedule`; brokers stay down for
  at least the rest of the simulated instant, so the budget exhausts
  deterministically and the request is rejected ``broker-unavailable``
  with every already-placed hold aborted;
- a broker *crash* wipes its own (volatile) holds — capacity returns
  instantly — and the coordinator aborts the surviving peer holds, so a
  crashed peer never strands capacity;
- a crashed **coordinator** is covered by the hold TTL: brokers
  timeout-abort uncommitted holds in their expiry sweep.

The protocol exists for faults that land *between* its phases.  With no
:class:`~repro.gateway.rpc.ChaosPolicy` and both owning brokers up nothing
can, so the admission books each broker once with the same capacity
checks (docs/GATEWAY.md, "Direct booking"); every other case runs it.

Every protocol call travels through a :class:`~repro.gateway.rpc.Channel`
(one per broker).  With a policy, deliveries can be dropped, duplicated,
delayed or partitioned, and the coordinator additionally:

- treats a :class:`~repro.gateway.rpc.ChannelTimeout` like an
  unavailability, burning the same backoff budget, but escalates to
  :class:`~repro.gateway.rpc.ShardUnreachable` (reject reason
  ``shard-unreachable``) when the timeouts exhaust the attempts or the
  configured ``rpc_deadline`` of simulated waiting;
- **compensates** a partially-committed transaction: when a commit fails
  after a peer commit already succeeded, the committed booking is
  released through the channel's reliable compensation path, so a
  crash-mid-2PC never strands committed capacity;
- leaves a hold whose abort was lost to the broker's TTL sweep
  (presumed abort) and counts it as stranded.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, TypeVar

from ..core.allocation import Allocation
from ..core.booking import FitProbe, RejectReason, admission_search, deadline_tolerance
# Unused: the frozen benchmarks/stack/tracer.py (CORE_TARGETS) resolves this
# name on this module until ROADMAP 1(b) re-baselines.
from ..core.booking import earliest_fit  # noqa: F401
from ..core.errors import ConfigurationError
from ..core.capacity import fits_under
from ..core.ledger import Port
from ..core.profile import RateProfile, Segment
from ..core.request import Request
from ..schedulers.retry import BackoffSchedule
from .broker import BrokerUnavailable, Hold, ShardBroker
from .rpc import Channel, ChannelTimeout, ChaosPolicy, ShardUnreachable
from .sharding import ShardMap

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.causal import CausalObserver

__all__ = ["TwoPhaseCoordinator", "TwoPhaseOutcome"]

_T = TypeVar("_T")


@dataclass
class TwoPhaseOutcome:
    """Everything one admission attempt produced, for stats and telemetry."""

    allocation: Allocation | None
    probe: FitProbe
    #: Both ports on one shard (booked atomically, no protocol run).
    local: bool = False
    #: The ports' cached all-time peaks answered without a full search.
    fastpath: bool = False
    #: Prepare/commit attempts burned on crashed brokers.
    retries: int = 0
    #: Simulated seconds of backoff the retries would have waited.
    retry_delay: float = 0.0
    #: A two-phase transaction was started and rolled back.
    aborted: bool = False
    #: Simulated seconds burned waiting on lost deliveries (chaos only).
    chaos_wait: float = 0.0
    #: Committed bookings undone because a peer commit failed (chaos only).
    compensations: int = 0
    #: Holds whose abort delivery was lost — the broker TTL sweep will
    #: reclaim them (presumed abort).
    stranded: int = 0
    #: Ambiguous deliveries (every ack lost) the termination probe found
    #: had actually landed on the broker's durable log (chaos only).
    recovered: int = 0


class TwoPhaseCoordinator:
    """Admission coordinator over a fleet of shard brokers."""

    def __init__(
        self,
        brokers: Sequence[ShardBroker],
        shard_map: ShardMap,
        *,
        backoff: BackoffSchedule | None = None,
        hold_ttl: float = 300.0,
        chaos: ChaosPolicy | None = None,
        rpc_deadline: float | None = None,
        observer: CausalObserver | None = None,
    ) -> None:
        if rpc_deadline is not None and rpc_deadline <= 0:
            raise ConfigurationError(
                f"rpc_deadline must be positive, got {rpc_deadline}"
            )
        self.brokers = list(brokers)
        self.shard_map = shard_map
        self.backoff = backoff
        self.hold_ttl = hold_ttl
        self.chaos = chaos
        #: Simulated seconds of waiting (backoff + timeouts) a transaction
        #: may burn on one shard before it is declared unreachable.
        self.rpc_deadline = rpc_deadline
        self.channels = [
            Channel(broker, policy=chaos, observer=observer) for broker in brokers
        ]
        platform = shard_map.platform
        #: Every port of the platform, fetched from its owning broker once:
        #: what :meth:`ports` hands the searches.
        self._ingress_ports = [
            self.broker_for("ingress", p).port("ingress", p) for p in range(platform.num_ingress)
        ]
        self._egress_ports = [
            self.broker_for("egress", p).port("egress", p) for p in range(platform.num_egress)
        ]

    # ------------------------------------------------------------------
    def broker_for(self, side: str, port: int) -> ShardBroker:
        """The broker owning ``port`` on ``side``."""
        return self.brokers[self.shard_map.shard_of(side, port)]

    def channel_for(self, side: str, port: int) -> Channel:
        """The channel to the broker owning ``port`` on ``side``."""
        return self.channels[self.shard_map.shard_of(side, port)]

    def ports(self, ingress: int, egress: int) -> tuple[Port, Port]:
        """The pair's two ports, each its owning broker's (read-only here):
        the coordinator is the :class:`~repro.core.booking.LedgerView` its
        searches run on."""
        return self._ingress_ports[ingress], self._egress_ports[egress]

    def reserve(
        self,
        request: Request,
        rate_for: Callable[[float], float | None],
        now: float,
        *,
        profile: RateProfile | None = None,
        malleable: bool = False,
    ) -> TwoPhaseOutcome:
        """Admit one request: search, then place it consistently.

        Returns a :class:`TwoPhaseOutcome`; ``outcome.allocation`` is
        ``None`` on rejection with ``outcome.probe.reason`` set.  Each
        booking call names its hop (``book``, ``prepare:<side>``,
        ``commit:<side>`` ...) so that, when the admission is traced, its
        deliveries and faults land on the right hop of its timeline.

        ``profile`` and ``malleable`` select the search as on the service
        (:func:`~repro.core.booking.admission_search`).
        """
        ingress_broker = self.broker_for("ingress", request.ingress)
        egress_broker = self.broker_for("egress", request.egress)
        hit = None
        if profile is None:
            hit = self._fastpath(request, rate_for)
        allocation, probe = hit if hit is not None else admission_search(
            self,
            request,
            rate_for,
            profile=profile,
            malleable=malleable,
        )
        outcome = TwoPhaseOutcome(
            allocation=None,
            probe=probe,
            local=ingress_broker is egress_broker,
            fastpath=hit is not None and allocation is not None,
        )
        if allocation is None:
            return outcome
        if self.chaos is None and not (ingress_broker.crashed or egress_broker.crashed):
            self._place_direct(ingress_broker, egress_broker, allocation, outcome)
        elif outcome.local:
            channel = self.channel_for("ingress", request.ingress)
            self._place_local(channel, allocation, outcome, now)
        else:
            self._place_two_phase(allocation, now, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _fastpath(
        self,
        request: Request,
        rate_for: Callable[[float], float | None],
    ) -> tuple[Allocation | None, FitProbe] | None:
        """Answer from the ports' cached all-time peaks when conclusive
        (``None`` when only the full search can tell).

        A hit must be decision-identical to the full search: it only fires
        on degradation-free ports where the chosen rate fits under
        ``capacity − all-time peak`` on both sides — then the window
        opening (the search's first candidate) is feasible and is exactly
        what the full search would return.
        """
        earliest = request.t_start
        latest = request.t_end - request.min_duration
        if latest < earliest:
            return None, FitProbe(reason=RejectReason.WINDOW_INFEASIBLE)
        port_in, port_out = self.ports(request.ingress, request.egress)
        if port_in.reductions is not None or port_out.reductions is not None:
            return None
        bw = rate_for(earliest)
        if bw is None or bw <= 0:
            return None
        tau = earliest + request.volume / bw
        if tau > request.t_end + deadline_tolerance(request.t_end):
            return None
        for port in (port_in, port_out):
            if not fits_under(max(0.0, port.usage.global_max()), bw, port.capacity):
                return None
        return Allocation.for_request(request, bw, sigma=earliest), FitProbe(candidates=1)

    # ------------------------------------------------------------------
    def _place_direct(
        self,
        ingress_broker: ShardBroker,
        egress_broker: ShardBroker,
        allocation: Allocation,
        outcome: TwoPhaseOutcome,
    ) -> None:
        """Book with no protocol (nothing can land between the halves): one
        ``book_pair`` for a shard-local pair, else one capacity-checked
        ``book_side`` per owning broker, a refusal rejecting as a refused
        prepare does."""
        a = allocation
        segments = a.segments()
        if ingress_broker is egress_broker:
            ingress_broker.book_pair(a.ingress, a.egress, segments, key=a.rid)
            channel = self.channels[ingress_broker.shard_id]
            channel.observe("rpc", "book_pair", "book", {"rid": a.rid})
            outcome.allocation = a
            return
        booked: list[tuple[ShardBroker, str, int]] = []
        for broker, side, port, full, hop in (
            (ingress_broker, "ingress", a.ingress, RejectReason.INGRESS_FULL, "book:ingress"),
            (egress_broker, "egress", a.egress, RejectReason.EGRESS_FULL, "book:egress"),
        ):
            if not broker.book_side(side, port, segments):
                for peer, peer_side, peer_port in booked:
                    peer.release(peer_side, peer_port, segments)
                outcome.aborted = True
                outcome.probe.reason = full
                return
            booked.append((broker, side, port))
            self.channels[broker.shard_id].observe("rpc", "book", hop, {"rid": a.rid, "side": side})
        outcome.allocation = a

    def _place_local(
        self,
        channel: Channel,
        allocation: Allocation,
        outcome: TwoPhaseOutcome,
        now: float,
    ) -> None:
        """Shard-local placement: one atomic pair booking, no protocol."""
        try:
            self._with_retry(
                lambda: channel.book_pair(
                    allocation.ingress,
                    allocation.egress,
                    allocation.segments(),
                    rid=allocation.rid,
                    now=now,
                    hop="book",
                ),
                outcome,
            )
        except BrokerUnavailable:
            outcome.probe.reason = RejectReason.BROKER_UNAVAILABLE
            return
        except ShardUnreachable:
            if channel.booking_landed(allocation.rid, hop="book"):
                # Termination probe: the booking executed and only its
                # acknowledgements were lost.  Accepting is the only
                # correct answer — rejecting would strand the booked
                # capacity with no reservation to explain it.
                outcome.recovered += 1
                outcome.allocation = allocation
                return
            outcome.probe.reason = RejectReason.SHARD_UNREACHABLE
            return
        outcome.allocation = allocation

    def _place_two_phase(
        self,
        allocation: Allocation,
        now: float,
        outcome: TwoPhaseOutcome,
    ) -> None:
        """Cross-shard placement: prepare both holds, then commit both."""
        expires = now + self.hold_ttl
        segments = allocation.segments()
        plan = (
            ("ingress", allocation.ingress, RejectReason.INGRESS_FULL),
            ("egress", allocation.egress, RejectReason.EGRESS_FULL),
        )
        placed: list[tuple[Channel, Hold]] = []
        for side, port, full_reason in plan:
            channel = self.channel_for(side, port)
            try:
                hold = self._with_retry(
                    lambda c=channel, s=side, p=port: c.prepare(
                        s, p, segments, rid=allocation.rid, expires=expires, now=now,
                        hop=f"prepare:{s}",
                    ),
                    outcome,
                )
            except BrokerUnavailable:
                self._abort(placed, outcome, now)
                outcome.probe.reason = RejectReason.BROKER_UNAVAILABLE
                return
            except ShardUnreachable:
                self._abort(placed, outcome, now)
                outcome.probe.reason = RejectReason.SHARD_UNREACHABLE
                return
            if hold is None:
                # The search said it fits; a refusal here means the slice
                # moved between search and prepare (never within one batch,
                # but the protocol does not assume that).
                self._abort(placed, outcome, now)
                outcome.probe.reason = full_reason
                return
            placed.append((channel, hold))
        committed: list[tuple[Channel, Hold]] = []
        for channel, hold in placed:
            hop = f"commit:{hold.side}"
            try:
                self._with_retry(
                    lambda c=channel, h=hold, x=hop: c.commit(h.hold_id, now=now, hop=x), outcome
                )
            except (BrokerUnavailable, ShardUnreachable) as exc:
                if isinstance(exc, ShardUnreachable) and channel.resolved_committed(
                    hold.hold_id, hop=hop
                ):
                    # Termination probe against the broker's durable
                    # resolution log: the commit landed and only its
                    # acknowledgements were lost.  The transaction
                    # marches on — presuming abort here would strand the
                    # committed booking.
                    outcome.recovered += 1
                    committed.append((channel, hold))
                    continue
                # Atomicity under partial commit: undo the peer bookings
                # that already committed (reliable compensation records),
                # then abort whatever is still held.
                self._compensate(committed, outcome, now)
                self._abort(placed[len(committed):], outcome, now)
                outcome.probe.reason = (
                    RejectReason.SHARD_UNREACHABLE
                    if isinstance(exc, ShardUnreachable)
                    else RejectReason.BROKER_UNAVAILABLE
                )
                return
            committed.append((channel, hold))
        outcome.allocation = allocation

    def _abort(
        self,
        placed: list[tuple[Channel, Hold]],
        outcome: TwoPhaseOutcome,
        now: float,
    ) -> None:
        """Roll the transaction back: release every hold we placed.

        ``abort_hold`` is served even by a crashed broker (its crash
        already wiped the hold; the call is then a no-op), so rollback
        never strands capacity — unless the abort *delivery* itself is
        lost, in which case the hold is stranded on purpose and the
        broker's TTL sweep reclaims it (presumed abort).
        """
        for channel, hold in placed:
            try:
                channel.abort_hold(hold.hold_id, now=now, hop=f"abort:{hold.side}")
            except ChannelTimeout:
                outcome.stranded += 1
        outcome.aborted = True

    def _compensate(
        self,
        committed: list[tuple[Channel, Hold]],
        outcome: TwoPhaseOutcome,
        now: float,
    ) -> None:
        """Undo committed halves of a failed transaction (never lost)."""
        for channel, hold in committed:
            hop = f"release:{hold.side}"
            channel.release(hold.side, hold.port, hold.segments, now=now, hop=hop)
            outcome.compensations += 1

    def _with_retry(self, call: Callable[[], _T], outcome: TwoPhaseOutcome) -> _T:
        """Run a broker call, burning the backoff budget on failures.

        Within one simulated instant a crashed broker cannot recover, so
        the loop deterministically accumulates the retry count and the
        backoff delay the attempts would have waited, then re-raises.
        Lost deliveries (:class:`ChannelTimeout`) burn the same attempt
        budget plus their timeout cost in simulated waiting; when the
        attempts run out on a timeout, or the accumulated waiting would
        exceed ``rpc_deadline``, the shard is declared
        :class:`ShardUnreachable` — a real deadline, not a wedged batch.
        """
        attempt = 0
        waited = 0.0
        timeouts = 0
        while True:
            try:
                return call()
            except (BrokerUnavailable, ChannelTimeout) as exc:
                attempt += 1
                if isinstance(exc, ChannelTimeout):
                    timeouts += 1
                    waited += exc.cost
                    outcome.chaos_wait += exc.cost
                if self.backoff is None or attempt >= self.backoff.max_attempts:
                    if timeouts:
                        raise ShardUnreachable(
                            f"gave up after {attempt} attempts "
                            f"({timeouts} lost deliveries)"
                        ) from exc
                    raise
                delay = self.backoff.delay(attempt)
                if (
                    self.rpc_deadline is not None
                    and waited + delay > self.rpc_deadline
                ):
                    raise ShardUnreachable(
                        f"rpc deadline {self.rpc_deadline}s exhausted after "
                        f"{attempt} attempts ({waited:.1f}s waited)"
                    ) from exc
                outcome.retries += 1
                outcome.retry_delay += delay
                waited += delay

    # ------------------------------------------------------------------
    def expire_holds(self, now: float) -> int:
        """Sweep every broker for timed-out holds; returns the count."""
        expired = 0
        for broker in self.brokers:
            expired += len(broker.expire_holds(now))
        return expired

    def release_pair(self, ingress: int, egress: int, segments: tuple[Segment, ...]) -> None:
        """Release committed ``(t0, t1, rate)`` segments of a pair booking
        back to the owning brokers (one segment for a constant rate)."""
        self.broker_for("ingress", ingress).release("ingress", ingress, segments)
        self.broker_for("egress", egress).release("egress", egress, segments)

    def restore_pair(self, ingress: int, egress: int, segments: tuple[Segment, ...]) -> None:
        """Re-add segments on both owning brokers without a capacity probe.

        The reshape path's inverse of :meth:`release_pair` — used to roll
        a released tail back when shaping failed, and to commit a shaped
        profile that fits by construction.
        """
        self.broker_for("ingress", ingress).restore("ingress", ingress, segments)
        self.broker_for("egress", egress).restore("egress", egress, segments)

    def overcommit_on(self, side: str, port: int, t0: float, t1: float) -> float:
        """Worst ``usage − capacity`` on one port, asked of its owning broker."""
        return self.broker_for(side, port).overcommit_on(side, port, t0, t1)
