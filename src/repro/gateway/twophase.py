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

- a broker found down is retried per a :class:`BackoffSchedule`;
  brokers stay down for at least the rest of the simulated instant, so
  the budget exhausts deterministically and the request is rejected
  ``broker-unavailable`` with every already-placed hold aborted;
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
from typing import TYPE_CHECKING, Any, TypeVar

from ..core.booking import FitProbe, RejectReason, admission_search, deadline_tolerance
# Unused: the frozen benchmarks/stack/tracer.py (CORE_TARGETS) resolves this
# name on this module until ROADMAP 1(b) re-baselines.
from ..core.booking import earliest_fit  # noqa: F401
from ..core.errors import ConfigurationError
from ..core.ledger import Port
from ..core.profile import RateProfile, Segment
from ..core.request import Request
from .broker import BrokerUnavailable, Hold, ShardBroker, hold_expired
from .rpc import Channel, ChannelTimeout, ChaosPolicy, ShardUnreachable
from .sharding import ShardMap

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.causal import CausalObserver
    from ..schedulers.policies import BandwidthPolicy
    from .tickets import Grant

__all__ = ["BackoffSchedule", "TwoPhaseCoordinator", "TwoPhaseOutcome", "direct_hops"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class BackoffSchedule:
    """Exponential backoff with optional jitter, shared by every retry path.

    Attempt ``k`` (1-based) waits ``base × multiplier^(k-1)`` seconds, plus
    a uniform random fraction of that delay up to ``jitter`` when an ``rng``
    is supplied — jitter decorrelates rebooking storms after a port outage
    displaces many reservations at once.

    Used by the coordinator's broker retries, by
    :class:`~repro.schedulers.retry.RetryGreedyFlexible` (client
    resubmission, §2.3, which re-exports it) and by the fault-recovery
    rebooking daemon (:mod:`repro.control.faults`).
    """

    base: float = 60.0
    multiplier: float = 2.0
    max_attempts: int = 8
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ConfigurationError(f"backoff base must be positive, got {self.base}")
        if self.multiplier < 1.0:
            raise ConfigurationError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: Any = None) -> float:
        """Wait before retry number ``attempt`` (1-based).

        ``rng`` is any object with a ``random()`` method returning a float
        in ``[0, 1)`` (``random.Random``, ``numpy.random.Generator``).
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = self.base * self.multiplier ** (attempt - 1)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class TwoPhaseOutcome:
    """Everything one admission attempt produced, for stats and telemetry.

    The protocol tallies stay class-level zeros unless the protocol ran."""

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
    #: Bookings a direct placement made (its hops, :func:`direct_hops`).
    booked: int = 0

    def __init__(self, probe: FitProbe, *, local: bool, fastpath: bool = False) -> None:
        self.grant: Grant | None = None  # the placed (σ, τ, bw, shape); None on rejection
        self.probe = probe  # the search's diagnostics (a fast-path hit's: one candidate)
        self.local = local  # both ports on one shard: booked atomically, no protocol
        self.fastpath = fastpath  # answered from the ports' cached all-time peaks


#: One causal hop of a placement: ``(cat, what, shard, segment, detail)``.
PlacementHop = tuple[str, str, int, str, dict[str, Any] | None]


def direct_hops(shards: ShardMap, request: Request, booked: int) -> list[PlacementHop]:
    """The causal hops of the first ``booked`` bookings of a direct
    placement (:meth:`TwoPhaseCoordinator._place_direct`): ``rpc.book_pair``
    on hop ``book`` of a shard-local pair, else ``rpc.book`` on
    ``book:ingress`` then ``book:egress``, each on its owning shard."""
    rid, ingress, egress = request.rid, request.ingress, request.egress
    into, out = shards.ingress_shard(ingress), shards.egress_shard(egress)
    hops: list[PlacementHop] = (
        [("rpc", "book_pair", into, "book", {"rid": rid})] if into == out else [
            ("rpc", "book", into, "book:ingress", {"rid": rid, "side": "ingress"}),
            ("rpc", "book", out, "book:egress", {"rid": rid, "side": "egress"}),
        ]
    )  # fmt: skip
    return hops[:booked]


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
        self.observer = observer
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
        #: Each port's owning broker, looked up once like its port.
        self._ingress_brokers = [self.broker_for("ingress", p) for p in range(platform.num_ingress)]
        self._egress_brokers = [self.broker_for("egress", p) for p in range(platform.num_egress)]

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
        self, rid: int, ingress: int, egress: int, volume: float, t_start: float, t_end: float,
        max_rate: float, policy: BandwidthPolicy, now: float, *,
        profile: RateProfile | None = None, malleable: bool = False,
    ) -> TwoPhaseOutcome:  # fmt: skip
        """Admit one request, given as its fields: search, then place it
        consistently; ``policy`` assigns its rate.

        Returns a :class:`TwoPhaseOutcome`; ``outcome.grant`` is ``None``
        on rejection with ``outcome.probe.reason`` set.  Each booking call
        names its hop (``book``, ``prepare:<side>``, ``commit:<side>`` ...)
        so that, when the admission is traced, its deliveries and faults
        land on the right hop of its timeline.

        A :class:`~repro.core.request.Request` is built only when the full
        search runs; ``profile`` and ``malleable`` select it as on the
        service (:func:`~repro.core.booking.admission_search`).
        """
        ingress_broker = self._ingress_brokers[ingress]
        egress_broker = self._egress_brokers[egress]
        local = ingress_broker is egress_broker
        grant = None
        if profile is None:
            if t_end - volume / max_rate < t_start:  # no shaping either
                return TwoPhaseOutcome(FitProbe(reason=RejectReason.WINDOW_INFEASIBLE), local=local)
            grant = self._fastpath(ingress, egress, volume, t_start, t_end, max_rate, policy)
        if grant is not None:
            outcome = TwoPhaseOutcome(FitProbe(candidates=1), local=local, fastpath=True)
            segments: tuple[Segment, ...] = (grant[:3],)
        else:
            request = Request(rid, ingress, egress, volume, t_start, t_end, max_rate)
            allocation, probe = admission_search(
                self, request, policy.bind(request), profile=profile, malleable=malleable
            )
            outcome = TwoPhaseOutcome(probe, local=local)
            if allocation is None:
                return outcome
            a = allocation
            grant, segments = (a.sigma, a.tau, a.bw, a.profile), a.segments()
        if self.chaos is None and not (ingress_broker.crashed or egress_broker.crashed):
            self._place_direct(
                ingress_broker, egress_broker, rid, ingress, egress, segments, grant, outcome
            )
        elif local:
            self._place_local(rid, ingress, egress, segments, grant, outcome, now)
        else:
            self._place_two_phase(rid, ingress, egress, segments, grant, now, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _fastpath(
        self, ingress: int, egress: int, volume: float, t_start: float, t_end: float,
        max_rate: float, policy: BandwidthPolicy,
    ) -> Grant | None:  # fmt: skip
        """Answer from the ports' cached all-time peaks when conclusive
        (``None`` when only the full search can tell).

        A hit must be decision-identical to the full search: it only fires
        on degradation-free ports where the chosen rate fits under
        ``capacity − all-time peak`` on both sides — then the window
        opening (the search's first candidate) is feasible and is exactly
        what the full search would return.  The test proves the step on
        both ports (:meth:`~repro.core.ledger.Port.fits_headroom`).
        """
        port_in, port_out = self._ingress_ports[ingress], self._egress_ports[egress]
        if port_in.reductions is not None or port_out.reductions is not None:
            return None
        bw = policy.rate(volume, t_end, max_rate, t_start)
        if bw is None or bw <= 0:
            return None
        tau = t_start + volume / bw
        if tau > t_end + deadline_tolerance(t_end):
            return None
        if port_in.fits_headroom(t_start, tau, bw) and port_out.fits_headroom(t_start, tau, bw):
            return t_start, tau, bw, None
        return None

    # ------------------------------------------------------------------
    def _place_direct(
        self, ingress_broker: ShardBroker, egress_broker: ShardBroker, rid: int, ingress: int,
        egress: int, segments: tuple[Segment, ...], grant: Grant, outcome: TwoPhaseOutcome,
    ) -> None:  # fmt: skip
        """Book with no protocol (nothing can land between the halves): one
        ``book_pair`` for a shard-local pair, else one capacity-checked
        ``book_side`` per owning broker, a refusal rejecting as a refused
        prepare does.  The outcome counts the bookings; what they look like
        on a timeline is :func:`direct_hops`."""
        if ingress_broker is egress_broker:
            ingress_broker.book_pair(ingress, egress, segments, key=rid)
            outcome.booked = 1
            outcome.grant = grant
            return
        if not ingress_broker.book_side("ingress", ingress, segments):
            outcome.aborted = True
            outcome.probe.reason = RejectReason.INGRESS_FULL
            return
        outcome.booked = 1
        if not egress_broker.book_side("egress", egress, segments):
            ingress_broker.release("ingress", ingress, segments)
            outcome.aborted = True
            outcome.probe.reason = RejectReason.EGRESS_FULL
            return
        outcome.booked = 2
        outcome.grant = grant

    def _place_local(
        self, rid: int, ingress: int, egress: int, segments: tuple[Segment, ...], grant: Grant,
        outcome: TwoPhaseOutcome, now: float,
    ) -> None:  # fmt: skip
        """Shard-local placement: one atomic pair booking, no protocol."""
        channel = self.channel_for("ingress", ingress)
        try:
            self._with_retry(
                lambda: channel.book_pair(ingress, egress, segments, rid=rid, now=now, hop="book"),
                outcome,
            )
        except BrokerUnavailable:
            outcome.probe.reason = RejectReason.BROKER_UNAVAILABLE
            return
        except ShardUnreachable:
            if channel.booking_landed(rid, hop="book"):
                # Termination probe: the booking executed and only its
                # acknowledgements were lost.  Accepting is the only
                # correct answer — rejecting would strand the booked
                # capacity with no reservation to explain it.
                outcome.recovered += 1
                outcome.grant = grant
                return
            outcome.probe.reason = RejectReason.SHARD_UNREACHABLE
            return
        outcome.grant = grant

    def _place_two_phase(
        self, rid: int, ingress: int, egress: int, segments: tuple[Segment, ...], grant: Grant,
        now: float, outcome: TwoPhaseOutcome,
    ) -> None:  # fmt: skip
        """Cross-shard placement: prepare both holds, then commit both."""
        expires = now + self.hold_ttl
        plan = (
            ("ingress", ingress, RejectReason.INGRESS_FULL),
            ("egress", egress, RejectReason.EGRESS_FULL),
        )
        placed: list[tuple[Channel, Hold]] = []
        for side, port, full_reason in plan:
            channel = self.channel_for(side, port)
            try:
                hold = self._with_retry(
                    lambda c=channel, s=side, p=port: c.prepare(
                        s, p, segments, rid=rid, expires=expires, now=now,
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
        outcome.grant = grant

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
        """Sweep the brokers for timed-out holds; returns the count.  A broker
        is asked only once its earliest live hold (:attr:`ShardBroker.due`)
        is due by its own test (:func:`~repro.gateway.broker.hold_expired`)."""
        expired = 0
        for broker in self.brokers:
            due = broker.due
            if due is not None and hold_expired(due, now):
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

    def release_stranded(self, side: str, port: int, t0: float, t1: float) -> None:
        """Abort the live holds on one port that overlap ``[t0, t1)``: between
        admissions a live hold is stranded (its abort lost), no one's booking."""
        broker = self.broker_for(side, port)
        for hold in broker.holds():
            steps = hold.segments
            if (hold.side, hold.port) == (side, port) and steps[0][0] < t1 and steps[-1][1] > t0:
                broker.abort_hold(hold.hold_id)
