"""The client-facing admission gateway: batched, sharded, journaled.

This is the paper's §5.4 reservation service: a client submits a
transfer and is answered with a window and a rate.  :class:`Gateway`
offers submit / cancel / abort / reshape / degrade, with journaling and
crash :meth:`Gateway.replay`, served through the sharded pipeline:

1. the **edge** (optional per-client token bucket) refuses out-of-quota
   submissions before they cost any admission work;
2. the **batcher** coalesces submissions arriving at the same simulated
   instant, up to ``batch_size``, releasing them in the configured order
   (FIFO / min-laxity / max-value);
3. the **coordinator** admits each batched request against the owning
   shard brokers — shard-local pairs atomically, cross-shard pairs
   through the two-phase prepare/commit protocol.

Determinism: the gateway clock only moves forward; a pending batch is
force-flushed *before* the clock advances (a batch never mixes
instants), and every externally-triggered state change — submission,
explicit drain, cancel, abort, reshape, degradation, broker
crash/restart — is journaled, so :meth:`replay` rebuilds a
state-identical gateway (``snapshot()`` equality).  What happens to a
reservation after admission, and the validate → settle → journal →
apply protocol every verb here follows, is :mod:`repro.gateway.lifecycle`.
A submission's one record, its :class:`Ticket`, *is* a lifecycle
``Reservation`` — handed out pending, filled in place when its batch
decides (:meth:`Gateway._admit`, the path first admissions and backlog
re-admissions share).

The defaults — one shard, batch size 1 — decide every admission at
submit, in submission order, against one authoritative ledger.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..core.allocation import ScheduleResult
from ..core.booking import RejectReason
from ..core.errors import ConfigurationError
from ..core.ledger import Degradation
from ..core.platform import Platform
from ..core.profile import RateProfile
from ..core.request import RequestSet
from ..obs.causal import CausalObserver, TraceContext, hop_spans
from ..obs.metrics import BoundCounter
from ..obs.recorder import FlightRecorder
from ..obs.slo import SloWatchdog
from ..obs.telemetry import Telemetry, get_telemetry
from ..obs.tracer import Hop, Span
from ..schedulers.policies import BandwidthPolicy, MinRatePolicy, policy_from_name
from ..schedulers.retry import BackoffSchedule
from . import lifecycle
from .batch import AdmissionOrdering, Batcher
from .edge import EdgeLimit, EdgeLimiter
from .journal import Journal
from .lifecycle import Reservation, ReservationState
from .rpc import ChaosPolicy
from .sharding import ShardMap
from .broker import ShardBroker
from .twophase import TwoPhaseCoordinator, TwoPhaseOutcome

__all__ = ["Gateway", "GatewayStats", "Ticket"]


@dataclass
class GatewayStats:
    """Counters a gateway accumulates (all deterministic)."""

    submits: int = 0
    accepted: int = 0
    rejected: int = 0
    edge_refused: int = 0
    batches: int = 0
    local: int = 0
    cross_shard: int = 0
    fastpath_hits: int = 0
    prepare_retries: int = 0
    retry_delay_total: float = 0.0
    twophase_aborts: int = 0
    holds_expired: int = 0
    cancelled: int = 0
    aborted: int = 0
    degradations: int = 0
    displaced: int = 0
    #: Live reservations whose tail was re-shaped instead of displaced.
    reshaped: int = 0
    crashes: int = 0
    restarts: int = 0
    #: Requests rejected ``shard-unreachable`` (chaos: retry/deadline out).
    shard_unreachable: int = 0
    #: Rejections parked in the re-admission backlog.
    backlogged: int = 0
    #: Backlogged requests successfully re-admitted later.
    readmitted: int = 0
    #: Committed bookings undone after a partial two-phase commit.
    compensations: int = 0
    #: Holds whose abort delivery was lost (TTL sweep reclaims them).
    stranded_holds: int = 0
    #: Ambiguous deliveries the termination probe resolved as landed.
    recovered_deliveries: int = 0
    #: Simulated seconds burned waiting on lost deliveries.
    chaos_wait_total: float = 0.0
    # Mirrors of the channels' chaos counters (absolute, not deltas).
    chaos_drops: int = 0
    chaos_duplicates: int = 0
    chaos_delays: int = 0
    chaos_partitioned: int = 0
    chaos_crashes: int = 0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (snapshot / reports)."""
        return dict(vars(self))


@dataclass(kw_only=True)
class Ticket(Reservation):
    """The one record of one submission.

    :meth:`Gateway.submit` creates it pending and hands it to the client;
    the flush that decides its batch fills ``allocation`` /
    ``reject_reason`` in place and sets ``decided``.  From then on it *is*
    the :class:`~repro.gateway.lifecycle.Reservation` the lifecycle verbs
    act on — ``gateway.get(rid)``, the entry in ``reservations()`` and the
    object ``on_decision`` receives are this same object.
    """

    #: Submission order (the batch orderings' tiebreak).
    seq: int
    client: str
    #: Refused by the per-client edge limiter (never entered a batch).
    edge_refused: bool = False
    #: Seconds until the refused volume would conform again (edge refusals
    #: only; ``inf`` when the volume exceeds the burst).  The service
    #: plane surfaces this as an HTTP 429 ``Retry-After`` hint.
    retry_after: float | None = None
    #: The stepwise shape the client asked for (``None`` = constant rate).
    profile: RateProfile | None = None
    #: The batch holding this submission has flushed, or the edge refused it.
    decided: bool = False


def _hop(name: str, now: float, ctx: TraceContext, fields: dict[str, Any]) -> Span:
    """One gateway-side span of a record (``cat="causal"``, track 0)."""
    return Hop(name, now, "causal", 0, ctx, fields).span()


class _Submitted(NamedTuple):
    """The causal record of one submission: ``gateway.trace.submit`` and
    ``gateway.trace.enqueued`` (``pending`` set) or
    ``gateway.trace.edge_refused``, rendered on read.  ``ctx`` is ``None``
    for a rid on its own root trace."""

    now: float
    rid: int
    ctx: TraceContext | None
    client: str
    ingress: int
    egress: int
    origin: int | None
    pending: int | None

    @property
    def width(self) -> int:
        return 2

    def spans(self) -> list[Span]:
        now, rid, ctx = self.now, self.rid, self.ctx or TraceContext.root(self.rid)
        submit = {"rid": rid, "client": self.client, "ingress": self.ingress}
        submit.update(egress=self.egress, origin=self.origin)
        if self.pending is None:
            then = _hop("gateway.trace.edge_refused", now, ctx, {"rid": rid, "client": self.client})
        else:
            then = _hop("gateway.trace.enqueued", now, ctx, {"rid": rid, "pending": self.pending})
        return [_hop("gateway.trace.submit", now, ctx, submit), then]


class _Admission:
    """The causal record of one admission attempt, stored once when it is
    decided: the placement's hops — ``(cat, what, shard, segment,
    detail)`` tuples the channels add while it is :attr:`CausalObserver.open`
    — then ``gateway.trace.decision``, or, for a backlog re-admission of
    rid ``readmits``, ``gateway.trace.readmit_attempt`` + hops +
    ``gateway.trace.readmit_decision``.  A first admission's record also
    renders its ``gateway.submit`` event.  Decision-time values only
    (:meth:`Gateway._admit` sets ``outcome`` and ``latency``): the ticket
    is rewritten later (reshape, degrade, cancel), its ``request`` and the
    attempt's ``outcome`` are not."""

    __slots__ = ("now", "rid", "ctx", "request", "readmits", "hops", "outcome", "latency")
    outcome: TwoPhaseOutcome
    latency: float

    def __init__(
        self, now: float, ticket: Ticket, ctx: TraceContext | None, readmits: int | None = None
    ) -> None:
        self.now, self.rid, self.request = now, ticket.rid, ticket.request
        self.ctx, self.readmits = ctx, readmits
        self.hops: list[tuple[str, str, int, str, dict[str, Any] | None]] = []

    @property
    def width(self) -> int:
        return len(self.hops) + (1 if self.readmits is None else 2)

    def spans(self) -> list[Span]:
        now, rid, ctx = self.now, self.rid, self.ctx or TraceContext.root(self.rid)
        spans = hop_spans(self.hops, now, ctx)
        accepted = self.outcome.allocation is not None
        decided = "accepted" if accepted else "rejected"
        if self.readmits is not None:
            fields: dict[str, Any] = {"rid": rid, "origin": self.readmits}
            attempt = _hop("gateway.trace.readmit_attempt", now, ctx, fields)
            done = _hop("gateway.trace.readmit_decision", now, ctx, {**fields, "outcome": decided})
            return [attempt, *spans, done]
        reason = self.outcome.probe.reason
        shown = None if accepted or reason is None else reason.value
        fields = {"rid": rid, "outcome": decided, "reason": shown, "latency": self.latency}
        return [*spans, _hop("gateway.trace.decision", now, ctx, fields)]

    def event(self) -> tuple[float, str, dict[str, Any]]:
        """The ``gateway.submit`` event of a first admission."""
        request, outcome, alloc = self.request, self.outcome, self.outcome.allocation
        fields: dict[str, Any] = {
            "rid": self.rid,
            "ingress": request.ingress,
            "egress": request.egress,
            "volume": request.volume,
            "deadline": request.t_end,
            "outcome": "accepted" if alloc is not None else "rejected",
            "path": "local" if outcome.local else "cross-shard",
            "fastpath": outcome.fastpath,
            "candidates": outcome.probe.candidates,
            "latency": self.latency,
        }
        fields.update((self.ctx or TraceContext.root(self.rid)).fields())
        if alloc is not None:
            fields.update(sigma=alloc.sigma, tau=alloc.tau, bw=alloc.bw)
        else:
            fields["reason"] = _reason(outcome)
        return self.now, "gateway.submit", fields


def _reason(outcome: TwoPhaseOutcome) -> str:
    """A rejected attempt's reason as reported (``unspecified`` if none)."""
    reason = outcome.probe.reason
    return reason.value if reason is not None else "unspecified"


class _Instruments:
    """The metric samples every decision or flush fires, bound once per
    telemetry handle (rarer verbs keep addressing the registry by name).

    Binding registers nothing: a family enters the registry — and
    ``/metrics``, and the artifact — with its first firing child.
    """

    __slots__ = (
        "telemetry", "submits", "admissions", "fastpath", "latency",
        "_rejects_by_reason", "batches", "occupancy",
    )  # fmt: skip

    def __init__(self, telemetry: Telemetry, ordering: str) -> None:
        self.telemetry = telemetry
        counter = telemetry.metrics.bind_counter
        histogram = telemetry.metrics.bind_histogram
        name, text = "gateway_submits_total", "Gateway admissions by outcome."
        self.submits = {
            outcome: counter(name, text, outcome=outcome) for outcome in ("accepted", "rejected")
        }
        name, text = "gateway_admissions_total", "Gateway admissions by placement path."
        self.admissions = {
            path: counter(name, text, path=path) for path in ("local", "cross-shard")
        }
        name, text = "gateway_fastpath_total", "Headroom-index fast-path answers."
        #: Keyed by ``TwoPhaseOutcome.fastpath``.
        self.fastpath = {
            True: counter(name, text, outcome="hit"),
            False: counter(name, text, outcome="miss"),
        }
        self.latency = histogram(
            "gateway_admission_latency_seconds",
            "Admission latency in simulated seconds (queueing + retries + chaos).",
        )
        self._rejects_by_reason: dict[str, BoundCounter] = {}
        self.batches = counter(
            "gateway_batches_total", "Admission batches flushed, by ordering.", ordering=ordering
        )
        self.occupancy = histogram("gateway_batch_occupancy", "Requests per flushed batch.")

    def rejects(self, reason: str) -> BoundCounter:
        """The ``gateway_rejects_total`` sample of one reject reason."""
        child = self._rejects_by_reason.get(reason)
        if child is None:
            child = self._rejects_by_reason[reason] = self.telemetry.metrics.bind_counter(
                "gateway_rejects_total", "Gateway rejections by reason.", reason=reason
            )
        return child


class Gateway:
    """Sharded, batched admission gateway over one platform.

    Parameters
    ----------
    platform:
        Port capacities (shared, read-only).
    num_shards:
        Shard broker count; ports are assigned round-robin.
    batch_size:
        Admissions per batch; ``1`` decides every submission immediately.
    ordering:
        Intra-batch admission order (``fifo`` / ``min-laxity`` / ``max-value``).
    policy:
        Bandwidth assignment policy (default: deadline-implied minimum rate).
    edge:
        Optional per-client token-bucket limit applied before batching.
    hold_ttl:
        Seconds an uncommitted two-phase hold survives before brokers
        timeout-abort it.
    backoff:
        Retry schedule for two-phase calls against a crashed broker
        (default: 3 attempts, 5 s base, no jitter — deterministic).
    chaos:
        Optional :class:`~repro.gateway.rpc.ChaosPolicy` injected into
        the coordinator↔broker channels (``None`` keeps them pure
        pass-throughs — bit-identical to a gateway without the layer).
    rpc_deadline:
        Simulated seconds of waiting (backoff + delivery timeouts) a
        transaction may burn on one shard before it rejects
        ``shard-unreachable`` instead of wedging the batch.
    backlog_limit:
        Re-admission backlog depth for requests rejected only because a
        shard was down or unreachable; ``0`` (default) disables it.
        Backlogged requests are retried — as fresh, window-clipped
        submissions linked via ``origin`` — whenever the clock advances
        or a broker restarts and their shards answer again.
    journal:
        Optional operation journal; every state-changing call is appended
        so :meth:`replay` can rebuild the gateway after a crash.
    telemetry:
        Explicit telemetry handle; when omitted, decisions are reported
        through the process-wide handle
        (:func:`~repro.obs.telemetry.get_telemetry`, a no-op by default).
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder` — bounded
        per-component ring buffers of recent causal events, dumped by
        :func:`~repro.gateway.invariants.check_gateway` on violation and
        by drills on demand.  Always on when attached (records even
        under :class:`~repro.obs.telemetry.NullTelemetry`); never
        journaled, snapshotted or replayed.
    slo:
        Optional :class:`~repro.obs.slo.SloWatchdog` evaluated at every
        batch flush over windowed admission/health aggregates; breaches
        are edge-triggered events, never admission decisions.

    The ``on_decision`` attribute (default ``None``) is a callback
    ``(ticket, now)`` invoked for every flushed decision with the decision
    instant — the fault drill sets it to sample aborts.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        num_shards: int = 1,
        batch_size: int = 1,
        ordering: str | AdmissionOrdering = AdmissionOrdering.FIFO,
        policy: BandwidthPolicy | None = None,
        edge: EdgeLimit | None = None,
        hold_ttl: float = 300.0,
        backoff: BackoffSchedule | None = None,
        chaos: ChaosPolicy | None = None,
        rpc_deadline: float | None = None,
        backlog_limit: int = 0,
        malleable: bool = False,
        journal: Journal | None = None,
        telemetry: Telemetry | None = None,
        recorder: FlightRecorder | None = None,
        slo: SloWatchdog | None = None,
    ) -> None:
        if hold_ttl <= 0:
            raise ConfigurationError(f"hold_ttl must be positive, got {hold_ttl}")
        if backlog_limit < 0:
            raise ConfigurationError(f"backlog_limit must be >= 0, got {backlog_limit}")
        self.platform = platform
        self.shard_map = ShardMap(platform, num_shards)
        self.brokers = [ShardBroker(s, self.shard_map) for s in range(num_shards)]
        self.policy = policy or MinRatePolicy()
        self.backoff = backoff if backoff is not None else BackoffSchedule(
            base=5.0, multiplier=2.0, max_attempts=3
        )
        self.chaos = chaos
        self.rpc_deadline = rpc_deadline
        self.backlog_limit = backlog_limit
        #: Opt-in stepwise-profile admission: shaped fallback after a
        #: constant-rate reject, and reshape-before-displace on degrade.
        #: Off (the default) the gateway is decision-identical to before.
        self.malleable = malleable
        self.slo = slo
        self._observer = CausalObserver(lambda: self.telemetry, recorder=recorder)
        #: Trace context of the rids that joined another request's trace
        #: (rebookings, re-admissions).  Every other rid's context is the
        #: pure function ``TraceContext.root(rid)`` and is not stored.
        self._trace_roots: dict[int, TraceContext] = {}
        self._bound: _Instruments | None = None
        # The coordinator gets its own copy of the broker list: the shard
        # set is fixed at construction, and a shared alias would let either
        # side mutate the other's view once brokers move out-of-process.
        self.coordinator = TwoPhaseCoordinator(
            list(self.brokers),
            self.shard_map,
            backoff=self.backoff,
            hold_ttl=hold_ttl,
            chaos=chaos,
            rpc_deadline=rpc_deadline,
            observer=self._observer,
        )
        self.batcher = Batcher(batch_size, AdmissionOrdering.from_name(ordering))
        self.edge = EdgeLimiter(edge) if edge is not None else None
        self.hold_ttl = hold_ttl
        self.stats = GatewayStats()
        self._backlog: list[int] = []
        self._chaos_seen: dict[str, float] = {}
        self._edge_seen: dict[str, float] = {}
        self._overcommit_hwm = 0.0
        self.on_decision: Callable[[Ticket, float], None] | None = None
        self.journal = journal
        self._telemetry = telemetry
        self._clock = float("-inf")
        self._batch_opened = float("-inf")
        self._next_seq = 0
        self._next_rid = 0
        #: Every submission's record by rid — which is insertion order:
        #: a rid is taken and its ticket stored in the same step.
        self._tickets: dict[int, Ticket] = {}
        self._degradations: list[Degradation] = []
        if journal is not None:
            header: dict[str, Any] = {
                "kind": "gateway",
                "platform": platform.to_dict(),
                "num_shards": num_shards,
                "batch_size": batch_size,
                "ordering": self.batcher.ordering.value,
                "policy": self.policy.name,
                "hold_ttl": hold_ttl,
                "backoff": {
                    "base": self.backoff.base,
                    "multiplier": self.backoff.multiplier,
                    "max_attempts": self.backoff.max_attempts,
                    "jitter": self.backoff.jitter,
                },
                "edge": edge.to_dict() if edge is not None else None,
                "chaos": chaos.to_dict() if chaos is not None else None,
                "rpc_deadline": rpc_deadline,
                "backlog_limit": backlog_limit,
            }
            if malleable:
                # Key present only when the feature is on, so journals of
                # constant-rate gateways stay byte-identical.
                header["malleable"] = True
            journal.set_header(header)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Last observed gateway time."""
        return self._clock

    @property
    def num_shards(self) -> int:
        """Number of shard brokers."""
        return len(self.brokers)

    @property
    def telemetry(self) -> Telemetry:
        """The handle decisions are reported through (instance or process-wide)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    @property
    def recorder(self) -> FlightRecorder | None:
        """The attached flight recorder (the observer's; ``None`` = off)."""
        return self._observer.recorder

    def _advance(self, now: float) -> None:
        """Move the clock forward, flushing the previous instant's batch."""
        if now < self._clock:
            raise ConfigurationError(f"time went backwards: {now} < {self._clock}")
        moved = now > self._clock
        if moved and len(self.batcher):
            self._flush(self._clock)
        self._clock = now
        expired = self.coordinator.expire_holds(now)
        if expired:
            self.stats.holds_expired += expired
            tel = self.telemetry
            if tel.enabled:
                tel.metrics.counter(
                    "gateway_holds_expired_total",
                    "Two-phase holds timeout-aborted by the brokers' expiry sweep.",
                ).inc(float(expired))
        if moved and self._backlog:
            self._readmit(now)

    def _settle(self, now: float) -> None:
        """Advance to ``now`` and decide the open batch (lifecycle verbs
        act on decided reservations only)."""
        self._advance(now)
        self._flush(self._clock)

    def _take_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def _record(self, op: str, now: float, **args: Any) -> None:
        if self.journal is not None:
            self.journal.append(op, now, **args)

    def _require_known(self, rid: int) -> None:
        """``KeyError`` unless ``rid`` is a reservation, decided or about to be.

        Asked of the ticket map, before settling: the settle may flush the
        very batch that decides ``rid``.  Edge-refused tickets never
        become reservations.
        """
        ticket = self._tickets.get(rid)
        if ticket is None or ticket.edge_refused:
            raise KeyError(f"unknown reservation {rid}")

    # ------------------------------------------------------------------
    # Causal tracing (observability only: never touches decisions,
    # journal, snapshot or replay)
    # ------------------------------------------------------------------
    def _ctx_of(self, rid: int) -> TraceContext:
        """``rid``'s position in its causal tree (a root unless it joined
        another request's trace)."""
        return self._trace_roots.get(rid) or TraceContext.root(rid)

    def _trace_ctx(self, rid: int) -> TraceContext | None:
        """:meth:`_ctx_of` when tracing, else ``None`` (no hop to mint)."""
        return self._ctx_of(rid) if self._observer.tracing() else None

    def _instruments(self, tel: Telemetry) -> _Instruments:
        """The hot metric samples, bound to ``tel`` (rebound if it changed)."""
        bound = self._bound
        if bound is None or bound.telemetry is not tel:
            bound = self._bound = _Instruments(tel, self.batcher.ordering.value)
        return bound

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        ingress: int,
        egress: int,
        volume: float,
        deadline: float,
        now: float,
        max_rate: float | None = None,
        client: str = "default",
        origin: int | None = None,
        profile: RateProfile | list[Any] | None = None,
    ) -> Ticket:
        """Enqueue a transfer; the decision lands when its batch flushes.

        With ``batch_size=1`` the batch flushes inside this call and the
        returned ticket is already decided.  ``origin`` links a rebooking
        to the reservation it replaces (an abort's or displacement's
        residual), for accounting and :meth:`accept_rate`.  ``profile``
        requests a stepwise (malleable) rate shape — absolute-time
        ``(t0, t1, rate)`` segments delivering exactly ``volume`` MB —
        placed as-given or slid later within the window.
        """
        # A malformed submission (InvalidRequestError, KeyError) is not a
        # rejection: it raises here, before the clock moves, the open batch
        # flushes or a rid is taken — nothing is journaled for it.
        request, wanted, entry = lifecycle.new_request(
            self.platform,
            self._next_rid,
            self._require_known,
            ingress=ingress,
            egress=egress,
            volume=volume,
            deadline=deadline,
            now=now,
            max_rate=max_rate,
            origin=origin,
            profile=profile,
        )
        self._advance(now)
        if request.rid != self._next_rid:
            # Settling re-admitted backlog entries, which took rids.
            request = request.with_rid(self._next_rid)
        rid = self._take_rid()
        seq = self._next_seq
        self._next_seq += 1
        ticket = self._tickets[rid] = Ticket(
            rid=rid, request=request, origin=origin, seq=seq, client=client, profile=wanted
        )
        self._record("submit", now, rid=rid, client=client, **entry)
        self.stats.submits += 1
        tel = self.telemetry
        traced = self._observer.tracing()
        ctx: TraceContext | None = None
        if traced and origin is not None:
            # A rebooking joins the original request's trace so one
            # `grid-obs explain` shows the whole lineage.
            ctx = self._trace_roots[rid] = self._ctx_of(origin).child(f"rebook:{rid}")
        if self.edge is not None and not self.edge.admit(client, volume, now):
            ticket.edge_refused = ticket.decided = True
            ticket.retry_after = self.edge.retry_after(client, volume, now)
            self.stats.edge_refused += 1
            if traced:
                record = _Submitted(now, rid, ctx, client, ingress, egress, origin, None)
                self._observer.store(record)
            if tel.enabled:
                tel.metrics.counter(
                    "gateway_edge_refusals_total",
                    "Submissions refused by the per-client edge token bucket.",
                ).inc(client=client)
                tel.emit(
                    "gateway.edge_refusal", now, rid=rid, client=client, volume=volume
                )
            return ticket
        if not len(self.batcher):
            self._batch_opened = now
        self.batcher.enqueue(ticket)
        if traced:
            record = _Submitted(now, rid, ctx, client, ingress, egress, origin, len(self.batcher))
            self._observer.store(record)
        if self.batcher.full:
            self._flush(now)
        return ticket

    def submit_many(
        self,
        submissions: list[dict[str, Any]],
        *,
        now: float,
        drain: bool = True,
    ) -> list[Ticket]:
        """Admit a whole wave of submissions at one instant, then decide.

        The batcher splits the wave at ``batch_size``.  Each entry is a
        keyword dict for :meth:`submit` minus ``now``; with ``drain=True``
        (default) the trailing partial batch is flushed so every returned
        ticket is decided.  (The service plane's frontier loops
        :meth:`submit` itself, to fail a malformed entry alone.)

        Runs synchronously on the caller's thread — safe to call from a
        single-threaded event loop between ``await`` points, because
        nothing here yields.
        """
        tickets = [self.submit(**fields, now=now) for fields in submissions]
        if drain and len(self.batcher):
            self.drain(now)
        return tickets

    def drain(self, now: float | None = None) -> None:
        """Force the open batch to decide now (journaled — order matters)."""
        at = self._clock if now is None else now
        self._advance(at)
        self._record("drain", at)
        self._flush(at)

    def _flush(self, now: float) -> None:
        """Decide every pending admission of the open batch, in batch order."""
        batch = self.batcher.drain(now)
        if not batch:
            return
        tel = self.telemetry
        traced = self._observer.tracing()
        for ticket in batch:
            self._decide(ticket, now, tel, traced)
        self.stats.batches += 1
        health = (
            self._health_snapshot(now)
            if (tel.enabled or self.slo is not None)
            else None
        )
        if tel.enabled:
            bound = self._instruments(tel)
            bound.batches.inc()
            bound.occupancy.observe(float(len(batch)))
            tel.tracer.complete(
                "gateway.batch",
                self._batch_opened,
                now,
                cat="gateway",
                size=len(batch),
                ordering=self.batcher.ordering.value,
            )
            tel.emit(
                "gateway.batch",
                now,
                size=len(batch),
                ordering=self.batcher.ordering.value,
                **(health or {}),
            )
        if self.slo is not None and health is not None:
            for metric in ("backlog_depth", "max_hold_age", "overcommit_proximity"):
                self.slo.sample(metric, now, health[metric])
            self.slo.evaluate(now, telemetry=tel, recorder=self.recorder)
        self._publish_chaos()

    def _admit(
        self,
        ticket: Ticket,
        now: float,
        tel: Telemetry,
        trace: _Admission | None,
        waiting_since: float,
    ) -> tuple[TwoPhaseOutcome, float]:
        """Run one admission through the coordinator and fill its record.

        The only code that turns a ``coordinator.reserve`` outcome into
        state: first admissions (:meth:`_decide`) and backlog
        re-admissions (:meth:`_readmit`) both come through here, so every
        protocol tally an attempt burned reaches :class:`GatewayStats`
        whichever of the two made it.  Returns the outcome and the
        admission latency in simulated time: queueing since
        ``waiting_since`` plus the retry backoff and chaos waiting the
        transaction burned.  A traced attempt's ``trace`` collects the
        placement's hops, is filled with the outcome and is stored.
        """
        request = ticket.request
        self._observer.open = trace
        outcome = self.coordinator.reserve(
            request,
            self.policy.bind(request),
            now,
            profile=ticket.profile,
            malleable=self.malleable,
        )
        self._observer.open = None
        ticket.allocation = outcome.allocation
        ticket.reject_reason = outcome.probe.reason
        ticket.decided = True
        stats = self.stats
        stats.prepare_retries += outcome.retries
        stats.retry_delay_total += outcome.retry_delay
        stats.chaos_wait_total += outcome.chaos_wait
        stats.compensations += outcome.compensations
        stats.stranded_holds += outcome.stranded
        stats.recovered_deliveries += outcome.recovered
        if outcome.aborted:
            stats.twophase_aborts += 1
        latency = (now - waiting_since) + outcome.retry_delay + outcome.chaos_wait
        if trace is not None:
            trace.outcome, trace.latency = outcome, latency
            self._observer.store(trace)
        accepted = outcome.allocation is not None
        if self.slo is not None:
            self.slo.admission(now, accepted=accepted, latency=latency)
        if accepted and (tel.enabled or self.slo is not None):
            self._note_port_peaks(request.ingress, request.egress)
        return outcome, latency

    def _decide(self, ticket: Ticket, now: float, tel: Telemetry, traced: bool) -> None:
        """Decide one batched submission; publish the outcome."""
        trace = _Admission(now, ticket, self._trace_roots.get(ticket.rid)) if traced else None
        # Queueing counts from the instant the request's window opened.
        outcome, latency = self._admit(ticket, now, tel, trace, ticket.request.t_start)
        if outcome.local:
            self.stats.local += 1
        else:
            self.stats.cross_shard += 1
        if outcome.fastpath:
            self.stats.fastpath_hits += 1
        if outcome.allocation is not None:
            self.stats.accepted += 1
        else:
            reason = ticket.reject_reason
            self.stats.rejected += 1
            if reason is RejectReason.SHARD_UNREACHABLE:
                self.stats.shard_unreachable += 1
            self._maybe_backlog(ticket, reason)
        if trace is not None and tel.enabled:  # (an enabled handle always traces)
            self._observe_decision(tel, outcome, latency, trace)
        if self.on_decision is not None:
            self.on_decision(ticket, now)

    def _maybe_backlog(self, ticket: Ticket, reason: RejectReason | None) -> None:
        """Park a broker-down/unreachable rejection for later re-admission.

        Only *infrastructure* rejections qualify — a capacity or window
        reject is final.  Re-admissions themselves (``origin`` set) are
        not parked again: their backlog entry is the original rid.
        """
        if self.backlog_limit <= 0 or ticket.origin is not None:
            return
        if reason not in (
            RejectReason.BROKER_UNAVAILABLE,
            RejectReason.SHARD_UNREACHABLE,
        ):
            return
        if len(self._backlog) >= self.backlog_limit:
            return
        self._backlog.append(ticket.rid)
        self.stats.backlogged += 1
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "gateway_backlogged_total",
                "Broker-down rejections parked for re-admission.",
            ).inc()

    def _observe_decision(
        self, tel: Telemetry, outcome: TwoPhaseOutcome, latency: float, trace: _Admission
    ) -> None:
        bound = self._instruments(tel)
        bound.submits["accepted" if outcome.allocation is not None else "rejected"].inc()
        bound.admissions["local" if outcome.local else "cross-shard"].inc()
        bound.fastpath[outcome.fastpath].inc()
        if outcome.retries:
            tel.metrics.counter(
                "gateway_prepare_retries_total",
                "Two-phase attempts burned on crashed brokers.",
            ).inc(float(outcome.retries))
        if outcome.aborted:
            tel.metrics.counter(
                "gateway_twophase_aborts_total",
                "Two-phase transactions rolled back with holds released.",
            ).inc()
        bound.latency.observe(latency)
        if outcome.allocation is None:
            bound.rejects(_reason(outcome)).inc()
        tel.store(trace)

    # ------------------------------------------------------------------
    # Degraded-mode re-admission (the backlog)
    # ------------------------------------------------------------------
    def _readmit(self, now: float) -> None:
        """Retry backlogged rejections whose shards answer again.

        Each entry is retried as a fresh, window-clipped request
        (:func:`~repro.gateway.lifecycle.readmission_candidate`: new rid,
        ``origin`` = the rejected rid) once a **read-only** serviceability
        probe says both owning shards are up and unpartitioned; entries
        whose deadline can no longer be met even at MaxRate are dropped.
        Nothing here is journaled — re-admission is a deterministic
        function of the op stream (and the chaos seed), so :meth:`replay`
        reproduces it.
        """
        keep: list[int] = []
        admitted: list[tuple[int, int]] = []
        tel = self.telemetry
        for rid in self._backlog:
            parked = self._tickets[rid]
            original = parked.request
            candidate = lifecycle.readmission_candidate(original, self._next_rid, now)
            if candidate is None:
                continue  # deadline unreachable: give the request up
            in_ok = self.coordinator.channel_for("ingress", original.ingress)
            out_ok = self.coordinator.channel_for("egress", original.egress)
            if not (in_ok.serviceable(now) and out_ok.serviceable(now)):
                keep.append(rid)
                continue
            # Every attempt burns a fresh rid — the rid doubles as the
            # broker-side idempotency key, and a failed attempt leaves
            # replay records keyed by it on the brokers.  Reusing the rid
            # for the next attempt would answer a *different* request from
            # a stale record (a compensated commit replays as "committed"
            # and books nothing).  Failed attempts therefore leave rid
            # gaps; replay burns them identically.
            attempt = Ticket(
                rid=self._take_rid(),
                request=candidate,
                origin=rid,
                seq=parked.seq,
                client=parked.client,
            )
            trace: _Admission | None = None
            if self._observer.tracing():
                # Re-admissions stay on the original request's trace: the
                # fresh rid is one more hop of the same causal story.
                ctx = self._trace_roots[attempt.rid] = self._ctx_of(rid).child(
                    f"readmit:{attempt.rid}"
                )
                trace = _Admission(now, attempt, ctx, readmits=rid)
            # The client has been waiting since the *original* window opened.
            self._admit(attempt, now, tel, trace, original.t_start)
            if not attempt.confirmed:
                keep.append(rid)  # the refused attempt leaves no record
                continue
            # Readable (``get``) wherever it is cancellable.
            self._tickets[attempt.rid] = attempt
            self.stats.readmitted += 1
            admitted.append((rid, attempt.rid))
        self._backlog = keep
        if tel.enabled and admitted:
            tel.metrics.counter(
                "gateway_readmissions_total",
                "Backlogged rejections successfully re-admitted.",
            ).inc(float(len(admitted)))
            for origin_rid, new_rid in admitted:
                tel.emit(
                    "gateway.readmit",
                    now,
                    origin=origin_rid,
                    rid=new_rid,
                    **self._ctx_of(new_rid).fields(),
                )
        self._publish_chaos()

    # ------------------------------------------------------------------
    # Health gauges (SLO watchdog inputs, sampled at every flush)
    # ------------------------------------------------------------------
    def _health_snapshot(self, now: float) -> dict[str, float]:
        """Point-in-time health gauges: backlog, hold age, peak proximity.

        ``overcommit_proximity`` is the worst all-time ``peak / capacity``
        ratio across ports — 1.0 is a fully-booked port, anything beyond
        the capacity slack is an invariant violation in the making.  It is
        a high-water mark advanced by :meth:`_note_port_peaks` as bookings
        confirm, so sampling here costs O(live holds), not a rescan of
        every port timeline at every flush.
        """
        max_age = 0.0
        for broker in self.brokers:
            for hold in broker.holds():
                max_age = max(max_age, now - (hold.expires - self.hold_ttl))
        return {
            "backlog_depth": float(len(self._backlog)),
            "max_hold_age": max_age,
            "overcommit_proximity": self._overcommit_hwm,
        }

    def _note_port_peaks(self, ingress: int, egress: int) -> None:
        """Advance the overcommit high-water mark after a confirmed booking.

        Only the two ports the booking touched can move the worst
        ``peak / capacity`` ratio, so the probe stays O(1) per admission.
        Cancellations, compensations and broker restarts can later lower
        the live peaks; the mark deliberately keeps the worst proximity
        the run ever reached.
        """
        for port in self.coordinator.ports(ingress, egress):
            if port.capacity > 0 and port.usage.global_max() / port.capacity > self._overcommit_hwm:
                self._overcommit_hwm = port.usage.global_max() / port.capacity

    # ------------------------------------------------------------------
    # Chaos accounting (channel counters → stats + telemetry deltas)
    # ------------------------------------------------------------------
    _CHAOS_COUNTERS = {
        "drops": "Deliveries lost on coordinator→broker channels.",
        "duplicates": "Deliveries replayed (at-least-once) to brokers.",
        "delays": "Deliveries sampled slow on coordinator→broker channels.",
        "partitioned": "Deliveries refused by an active shard partition.",
        "crashes": "Broker crashes sampled right after a protocol phase.",
    }

    #: Per-edge channel counters surfaced as shard-labeled metrics
    #: (``ChannelStats`` field → metric name + help).
    _CHANNEL_COUNTERS = {
        "calls": (
            "gateway_channel_deliveries_total",
            "Protocol deliveries attempted per coordinator→broker edge.",
        ),
        "drops": (
            "gateway_channel_dropped_total",
            "Deliveries lost per coordinator→broker edge.",
        ),
        "duplicates": (
            "gateway_channel_duplicated_total",
            "Deliveries replayed (at-least-once) per edge.",
        ),
        "delays": (
            "gateway_channel_delayed_total",
            "Deliveries sampled slow per edge.",
        ),
        "partitioned": (
            "gateway_channel_partitioned_total",
            "Deliveries refused by a partition window per edge.",
        ),
        "crashes": (
            "gateway_channel_crashes_total",
            "Broker crashes sampled mid-protocol per edge.",
        ),
        "recovered": (
            "gateway_channel_recovered_total",
            "Ambiguous deliveries the termination probe recovered per edge.",
        ),
    }

    def _publish_chaos(self) -> None:
        """Fold the channels' chaos counters into stats and telemetry.

        With no chaos configured this returns immediately — no counters
        move, no events are emitted, decision traces stay byte-identical.
        """
        if self.chaos is None:
            return
        totals = {name: 0.0 for name in self._CHAOS_COUNTERS}
        totals["latency"] = 0.0
        for channel in self.coordinator.channels:
            for name, value in channel.stats.as_dict().items():
                if name in totals:
                    totals[name] += float(value)
        for name in self._CHAOS_COUNTERS:
            setattr(self.stats, f"chaos_{name}", int(totals[name]))
        tel = self.telemetry
        if tel.enabled:
            for name, help_text in self._CHAOS_COUNTERS.items():
                delta = totals[name] - self._chaos_seen.get(name, 0.0)
                if delta > 0:
                    tel.metrics.counter(
                        f"gateway_chaos_{name}_total", help_text
                    ).inc(delta)
            for channel in self.coordinator.channels:
                per_edge = channel.stats.as_dict()
                for field, (metric, help_text) in self._CHANNEL_COUNTERS.items():
                    key = f"{channel.shard_id}:{field}"
                    value = float(per_edge[field])
                    delta = value - self._edge_seen.get(key, 0.0)
                    self._edge_seen[key] = value
                    if delta > 0:
                        tel.metrics.counter(metric, help_text).inc(
                            delta, shard=channel.shard_id
                        )
        self._chaos_seen = totals

    # ------------------------------------------------------------------
    # Lifecycle operations (the rules live in repro.gateway.lifecycle)
    # ------------------------------------------------------------------
    def cancel(self, rid: int, *, now: float) -> bool:
        """Cancel a reservation; the unconsumed tail returns to its shards."""
        self._require_known(rid)
        self._settle(now)
        self._record("cancel", now, rid=rid)
        released = lifecycle.terminate(
            self._tickets[rid], now, ReservationState.CANCELLED, self.coordinator
        )
        if released:
            self.stats.cancelled += 1
        self._observer.note(
            "gateway.trace.cancel", now, self._trace_ctx(rid), {"rid": rid, "released": released}
        )
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("gateway_cancels_total", "Cancellations by effect.").inc(
                released=str(released).lower()
            )
            tel.emit("gateway.cancel", now, rid=rid, released=released)
        return released

    def abort(self, rid: int, *, now: float) -> bool:
        """A transfer died mid-flight; free its tail on both shards."""
        self._require_known(rid)
        self._settle(now)
        self._record("abort", now, rid=rid)
        reservation = self._tickets[rid]
        if not lifecycle.terminate(reservation, now, ReservationState.ABORTED, self.coordinator):
            return False
        self.stats.aborted += 1
        self._observer.note("gateway.trace.abort", now, self._trace_ctx(rid), {"rid": rid})
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("gateway_aborts_total", "Mid-flight transfer aborts.").inc()
            tel.emit("gateway.abort", now, rid=rid, wasted=reservation.carried)
        return True

    def degrade(
        self,
        *,
        side: str,
        port: int,
        amount: float,
        start: float,
        end: float,
        now: float,
    ) -> list[Reservation]:
        """Apply a capacity reduction on the owning shard; displace overflow.

        Latest-starting live reservations on the port yield first (their
        tails re-shaped instead when ``malleable``), until the shard's
        slice fits under the remaining capacity again.
        """
        degradation = lifecycle.new_degradation(
            self.platform, side=side, port=port, amount=amount, start=start, end=end
        )
        self._settle(now)
        self._record(
            "degrade", now, side=side, port=port, amount=amount, start=start, end=end
        )
        self.coordinator.broker_for(side, port).degrade(degradation)
        self._degradations.append(degradation)
        self.stats.degradations += 1
        # Pending and edge-refused tickets hold no allocation, so the
        # victim search passes over them.
        displaced, reshaped_rids = lifecycle.displace_overflow(
            self._tickets.values(),
            degradation,
            now,
            self.platform,
            self.coordinator,
            malleable=self.malleable,
        )
        self.stats.displaced += len(displaced)
        self.stats.reshaped += len(reshaped_rids)
        recorder = self.recorder
        if recorder is not None:
            row: dict[str, Any] = {
                "side": side,
                "port": port,
                "amount": amount,
                "displaced": [r.rid for r in displaced],
            }
            if reshaped_rids:
                row["reshaped"] = reshaped_rids
            recorder.record("gateway", now, "degrade", **row)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "gateway_degrades_total", "Capacity degradations applied, by side."
            ).inc(side=side)
            if displaced:
                tel.metrics.counter(
                    "gateway_displacements_total",
                    "Reservations displaced by degradations.",
                ).inc(float(len(displaced)))
            fields: dict[str, Any] = {
                "side": side,
                "port": port,
                "amount": amount,
                "start": start,
                "end": end,
                "displaced": [r.rid for r in displaced],
            }
            if reshaped_rids:
                fields["reshaped"] = reshaped_rids
            tel.emit("gateway.degrade", now, **fields)
        return displaced

    def reshape(self, rid: int, *, now: float) -> bool:
        """Re-shape a live reservation's unconsumed tail (malleable verb).

        The tail ``[max(now, σ), τ)`` returns to its shards and the still
        undelivered volume is re-carved into the pair's residual capacity
        valleys (:func:`~repro.gateway.lifecycle.reshape_tail`).  On
        failure the original tail is restored exactly.  Journaled as
        ``reshape``; returns True when re-shaped.
        """
        self._require_known(rid)
        self._settle(now)
        self._record("reshape", now, rid=rid)
        ok = lifecycle.reshape_tail(self._tickets[rid], now, self.coordinator)
        if ok:
            self.stats.reshaped += 1
        self._observer.note(
            "gateway.trace.reshape", now, self._trace_ctx(rid), {"rid": rid, "reshaped": ok}
        )
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "gateway_reshapes_total", "Malleable tail re-shapes by effect."
            ).inc(reshaped=str(ok).lower())
            tel.emit("gateway.reshape", now, rid=rid, reshaped=ok)
        return ok

    # ------------------------------------------------------------------
    # Broker faults
    # ------------------------------------------------------------------
    def crash_broker(self, shard: int, *, now: float) -> int:
        """Kill one shard broker; its volatile holds are wiped (capacity
        returns) and two-phase calls against it fail until restart.

        Deliberately does *not* flush the open batch: submissions pending
        at the crash instant face the crashed broker when their batch
        decides — the mid-prepare abort path the drills exercise.
        """
        broker = self._broker(shard)
        self._advance(now)
        self._record("crash", now, shard=shard)
        wiped = broker.crash()
        self.stats.crashes += 1
        if self.recorder is not None:
            self.recorder.record(f"rpc.shard{shard}", now, "broker.crash", holds_wiped=wiped)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "gateway_broker_crashes_total", "Shard broker crashes injected."
            ).inc(shard=shard)
            tel.emit("gateway.crash", now, shard=shard, holds_wiped=wiped)
        return wiped

    def restart_broker(self, shard: int, *, now: float) -> None:
        """Bring a crashed broker back (committed slices intact, holds gone)."""
        broker = self._broker(shard)
        self._advance(now)
        self._record("restart", now, shard=shard)
        broker.restart()
        self.stats.restarts += 1
        if self.recorder is not None:
            self.recorder.record(f"rpc.shard{shard}", now, "broker.restart")
        tel = self.telemetry
        if tel.enabled:
            tel.emit("gateway.restart", now, shard=shard)
        if self._backlog:
            self._readmit(now)

    def _broker(self, shard: int) -> ShardBroker:
        if not (0 <= shard < len(self.brokers)):
            raise ConfigurationError(f"no shard {shard} (have {len(self.brokers)})")
        return self.brokers[shard]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def get(self, rid: int) -> Ticket:
        """Look up a submission's ticket by reservation id."""
        try:
            return self._tickets[rid]
        except KeyError:
            raise KeyError(f"unknown reservation {rid}") from None

    def reservations(self) -> list[Ticket]:
        """Every decision (confirmed or rejected) so far, in rid order —
        not the still-pending tickets, nor the edge-refused ones."""
        return [t for t in self._tickets.values() if t.decided and not t.edge_refused]

    def pending(self) -> int:
        """Submissions waiting in the open batch."""
        return len(self.batcher)

    def degradations(self) -> list[Degradation]:
        """Every capacity degradation applied so far, in order."""
        return list(self._degradations)

    def max_overcommit(self) -> float:
        """Worst ``usage − capacity`` across every shard (≤ 0 ⇔ valid)."""
        return max(broker.max_overcommit() for broker in self.brokers)

    def port_usage(self, t: float) -> tuple[list[float], list[float]]:
        """Committed bandwidth per (ingress, egress) port at time ``t``."""
        ins = [
            self.coordinator.broker_for("ingress", i).usage_at("ingress", i, t)
            for i in range(self.platform.num_ingress)
        ]
        outs = [
            self.coordinator.broker_for("egress", e).usage_at("egress", e, t)
            for e in range(self.platform.num_egress)
        ]
        return ins, outs

    def accept_rate(self) -> float:
        """Served client submissions over all decided client submissions.

        A client submission (no ``origin``) counts as served when its own
        reservation was confirmed **or** a later re-admission or rebooking
        linked to it through ``origin`` was.
        """
        decided = self.reservations()
        roots = {r.rid for r in decided if r.origin is None}
        if not roots:
            return 0.0
        served = {self._root_of(r.rid) for r in decided if r.confirmed}
        return len(served & roots) / len(roots)

    def _root_of(self, rid: int) -> int:
        """Follow ``origin`` links back to the original client submission
        (an ``origin`` always names an earlier rid)."""
        origin = self._tickets[rid].origin
        while origin is not None:
            rid, origin = origin, self._tickets[origin].origin
        return rid

    def surviving_schedule(self) -> tuple[RequestSet, ScheduleResult]:
        """The live schedule as (requests, result) for ``verify_schedule``.

        Accepted: every confirmed reservation not terminated early (its
        full allocation holds shard capacity).  Rejected: submissions that
        were never admitted.  Terminated reservations (cancelled / aborted
        / displaced) are in neither — their consumed heads remain in the
        shards' timelines but no longer constitute scheduled transfers.
        """
        requests = []
        result = ScheduleResult(scheduler=f"gateway[{self.policy.name}]")
        for r in self.reservations():
            if r.confirmed and r.terminated_at is None:
                requests.append(r.request)
                result.accept(r.allocation)
            elif not r.confirmed:
                requests.append(r.request)
                result.reject(
                    r.rid, r.reject_reason.value if r.reject_reason is not None else "capacity"
                )
        return RequestSet(requests), result

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Canonical, JSON-able digest of the full gateway state.

        Two gateways are state-identical iff their snapshots compare
        equal; the replay tests rely on this.
        """
        return {
            "clock": self._clock,
            "next_rid": self._next_rid,
            "pending": [t.seq for t in self.batcher._pending],
            "reservations": lifecycle.reservation_rows(self.reservations()),
            "edge_refused": sorted(
                rid for rid, t in self._tickets.items() if t.edge_refused
            ),
            "backlog": list(self._backlog),
            "shards": [broker.snapshot() for broker in self.brokers],
            "degradations": [d.to_dict() for d in self._degradations],
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def replay(cls, journal: Journal) -> Gateway:
        """Rebuild a gateway from its operation journal.

        The header supplies the configuration; the recorded operations are
        re-applied in order.  Batch flushes triggered by batch-full and
        clock-advance recur identically (they are functions of the op
        stream), and explicit drains are journaled, so the rebuilt gateway
        is state-identical (``snapshot()`` equality).  A header with no
        ``kind`` (a journal of the retired single-ledger service) reads as
        a default gateway, unless that service ran a backlog: it re-admitted
        parked rejections whenever capacity freed, unjournaled, each taking
        a rid, so its later rids cannot be reproduced and it is refused.
        """
        header = journal.header
        if not header:
            raise ConfigurationError("journal has no header; cannot replay")
        if header.get("kind", "gateway") != "gateway":
            raise ConfigurationError(f"not a gateway journal (kind: {header.get('kind')!r})")
        if "kind" not in header and int(header.get("backlog_limit", 0)) > 0:
            raise ConfigurationError(
                "service journal with backlog_limit > 0: its capacity-backlog "
                "re-admissions were not journaled, so its rids cannot be replayed"
            )
        backoff_cfg = header.get("backoff") or {}
        edge_cfg = header.get("edge")
        chaos_cfg = header.get("chaos")
        rpc_deadline = header.get("rpc_deadline")
        gateway = cls(
            Platform.from_dict(header["platform"]),
            num_shards=int(header.get("num_shards", 1)),
            batch_size=int(header.get("batch_size", 1)),
            ordering=str(header.get("ordering", "fifo")),
            policy=policy_from_name(header.get("policy", "min-bw")),
            edge=EdgeLimit.from_dict(edge_cfg) if edge_cfg is not None else None,
            hold_ttl=float(header.get("hold_ttl", 300.0)),
            backoff=BackoffSchedule(
                base=float(backoff_cfg.get("base", 5.0)),
                multiplier=float(backoff_cfg.get("multiplier", 2.0)),
                max_attempts=int(backoff_cfg.get("max_attempts", 3)),
                jitter=float(backoff_cfg.get("jitter", 0.0)),
            ),
            chaos=ChaosPolicy.from_dict(chaos_cfg) if chaos_cfg is not None else None,
            rpc_deadline=float(rpc_deadline) if rpc_deadline is not None else None,
            backlog_limit=int(header.get("backlog_limit", 0)),
            malleable=bool(header.get("malleable", False)),
            journal=None,
        )
        lifecycle.replay_ops(gateway, journal)
        return gateway

    @classmethod
    def resume(
        cls,
        journal: Journal,
        *,
        telemetry: Telemetry | None = None,
        slo: SloWatchdog | None = None,
        recorder: FlightRecorder | None = None,
    ) -> Gateway:
        """Replay a journal into a gateway that keeps *living* on it.

        The service plane's restart path: :meth:`replay` deliberately
        rebuilds without observability wiring (replayed history must not
        re-emit metrics or SLO samples — it already happened), then this
        re-attaches the live handles and re-arms the journal so new
        operations append after the replayed ones.
        """
        gateway = cls.replay(journal)
        gateway._telemetry = telemetry  # the observer reads it per record
        gateway.slo = slo
        gateway._observer.recorder = recorder
        gateway.journal = journal
        return gateway
