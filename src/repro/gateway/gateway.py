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
A submission's one record is its row of the gateway's
:class:`~repro.gateway.tickets.TicketTable` — written pending at submit,
decided when its batch flushes (:meth:`Gateway._admit`, the path first
admissions and backlog re-admissions share), and acted on by the
lifecycle verbs from then on; a :class:`~repro.gateway.tickets.Ticket`
is a live view of it.

The defaults — one shard, batch size 1 — decide every admission at
submit, in submission order, against one authoritative ledger.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..core.allocation import ScheduleResult
from ..core.booking import RejectReason
from ..core.errors import ConfigurationError, InvalidRequestError, ReproError
from ..core.ledger import Degradation
from ..core.platform import Platform
from ..core.profile import RateProfile
from ..core.request import RATE_TOLERANCE, RequestSet, check_request
from ..obs.causal import CausalObserver, TraceContext, hop_spans
from ..obs.metrics import BoundCounter, Sample
from ..obs.slo import SloWatchdog
from ..obs.telemetry import NullTelemetry, Telemetry, get_telemetry, use_telemetry
from ..obs.tracer import Hop, Span
from ..schedulers.policies import BandwidthPolicy, MinRatePolicy, policy_from_name
from . import lifecycle
from .batch import AdmissionOrdering, Batcher, Pending
from .edge import EdgeLimit, EdgeLimiter
from .journal import Journal, JournalEntry
from .rpc import ChaosPolicy
from .sharding import ShardMap
from .broker import ShardBroker
from .tickets import DECIDED, REFUSED, Grant, ReservationState, Ticket, TicketTable
from .twophase import (
    BackoffSchedule, PlacementHop, TwoPhaseCoordinator, TwoPhaseOutcome, direct_hops,
)  # fmt: skip

__all__ = ["Gateway", "GatewayStats", "Submission"]

#: A submission :func:`~repro.gateway.lifecycle.check_submission` passed:
#: ``(ingress, egress, volume, deadline, max_rate, client, wanted)``.
Submission = tuple[int, int, float, float, float, str, "RateProfile | None"]
#: ``check_request``'s MinRate slack, as a wave's window re-test applies it.
_SLACK = 1 - RATE_TOLERANCE


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


_SUBMITS_HELP = "Gateway admissions by outcome."
_PATHS_HELP = "Gateway admissions by placement path."
_FASTPATH_HELP = "Headroom-index fast-path answers."
#: ``stats.chaos_<name>`` → help of ``gateway_chaos_<name>_total``.
_CHAOS_COUNTERS = {
    "drops": "Deliveries lost on coordinator→broker channels.",
    "duplicates": "Deliveries replayed (at-least-once) to brokers.",
    "delays": "Deliveries sampled slow on coordinator→broker channels.",
    "partitioned": "Deliveries refused by an active shard partition.",
    "crashes": "Broker crashes sampled right after a protocol phase.",
}

#: The :class:`GatewayStats` fields ``/metrics`` shows, each as the counter
#: sample :meth:`Gateway._collect` renders it as.  It adds
#: ``gateway_batches_total`` (labelled by the gateway's ordering), the
#: fast-path misses (first admissions less the hits) and, with chaos on,
#: each channel's counts per shard (:data:`_CHANNEL_COUNTERS`).
_COLLECTED: dict[str, Sample] = {
    "accepted": ("gateway_submits_total", _SUBMITS_HELP, (("outcome", "accepted"),)),
    "rejected": ("gateway_submits_total", _SUBMITS_HELP, (("outcome", "rejected"),)),
    "local": ("gateway_admissions_total", _PATHS_HELP, (("path", "local"),)),
    "cross_shard": ("gateway_admissions_total", _PATHS_HELP, (("path", "cross-shard"),)),
    "fastpath_hits": ("gateway_fastpath_total", _FASTPATH_HELP, (("outcome", "hit"),)),
    "prepare_retries": (
        "gateway_prepare_retries_total", "Two-phase attempts burned on crashed brokers.", ()
    ),
    "twophase_aborts": (
        "gateway_twophase_aborts_total",
        "Two-phase transactions rolled back with holds released.",
        (),
    ),
    "holds_expired": (
        "gateway_holds_expired_total",
        "Two-phase holds timeout-aborted by the brokers' expiry sweep.",
        (),
    ),
    "backlogged": (
        "gateway_backlogged_total", "Broker-down rejections parked for re-admission.", ()
    ),
    "readmitted": (
        "gateway_readmissions_total", "Backlogged rejections successfully re-admitted.", ()
    ),
    "aborted": ("gateway_aborts_total", "Mid-flight transfer aborts.", ()),
    "displaced": ("gateway_displacements_total", "Reservations displaced by degradations.", ()),
    **{
        f"chaos_{name}": (f"gateway_chaos_{name}_total", help_text, ())
        for name, help_text in _CHAOS_COUNTERS.items()
    },
}
_FASTPATH_MISS: Sample = ("gateway_fastpath_total", _FASTPATH_HELP, (("outcome", "miss"),))

#: Per-edge channel counters surfaced as shard-labeled metrics
#: (``ChannelStats`` field → metric name + help).
_CHANNEL_COUNTERS = {
    "calls": (
        "gateway_channel_deliveries_total",
        "Protocol deliveries attempted per coordinator→broker edge.",
    ),
    "drops": ("gateway_channel_dropped_total", "Deliveries lost per coordinator→broker edge."),
    "duplicates": (
        "gateway_channel_duplicated_total",
        "Deliveries replayed (at-least-once) per edge.",
    ),
    "delays": ("gateway_channel_delayed_total", "Deliveries sampled slow per edge."),
    "partitioned": (
        "gateway_channel_partitioned_total",
        "Deliveries refused by a partition window per edge.",
    ),
    "crashes": ("gateway_channel_crashes_total", "Broker crashes sampled mid-protocol per edge."),
    "recovered": (
        "gateway_channel_recovered_total",
        "Ambiguous deliveries the termination probe recovered per edge.",
    ),
}


def _hop(name: str, now: float, ctx: TraceContext, fields: dict[str, Any]) -> Span:
    """One gateway-side span of a record (``cat="causal"``, track 0)."""
    return Hop(name, now, "causal", 0, ctx, fields).span()


class _Submitted(NamedTuple):
    """The causal record of one submission: ``gateway.trace.submit`` and
    ``gateway.trace.enqueued`` (``pending`` set) or
    ``gateway.trace.edge_refused``, rendered on read from the ticket's
    fields that never change.  ``ctx`` is ``None`` for a rid on its own
    root trace."""

    now: float
    ticket: Ticket
    ctx: TraceContext | None
    pending: int | None

    @property
    def width(self) -> int:
        return 2

    def spans(self) -> list[Span]:
        ticket, request = self.ticket, self.ticket.request
        now, rid, client = self.now, ticket.rid, ticket.client
        ctx = self.ctx or TraceContext.root(rid)
        submit = {"rid": rid, "client": client, "ingress": request.ingress}
        submit.update(egress=request.egress, origin=ticket.origin)
        if self.pending is None:
            then = _hop("gateway.trace.edge_refused", now, ctx, {"rid": rid, "client": client})
        else:
            then = _hop("gateway.trace.enqueued", now, ctx, {"rid": rid, "pending": self.pending})
        return [_hop("gateway.trace.submit", now, ctx, submit), then]


class _Admission:
    """The causal record of one admission attempt, stored once when it is
    decided: the placement's hops, then ``gateway.trace.decision``, or,
    for a backlog re-admission of rid ``readmits``,
    ``gateway.trace.readmit_attempt`` + hops +
    ``gateway.trace.readmit_decision``.  A first admission's record also
    renders its ``gateway.submit`` event.

    Flat and decision-time only (:meth:`Gateway._admit` fills the
    outcome's scalars, the ``grant`` and the bookings a direct placement
    made):
    the ticket's request, client and reject reason never change; its
    allocation may (reshape), so the record keeps its own.
    A direct placement (:func:`~repro.gateway.twophase.direct_hops`) keeps
    only how many of its fixed bookings it made (``booked``); only the
    two-phase protocol's deliveries and faults are kept as ``hops`` —
    ``(cat, what, shard, segment, detail)`` tuples the channels add while
    the record is :attr:`CausalObserver.open`."""

    __slots__ = (
        "now", "ticket", "ctx", "readmits", "shards", "booked", "hops",
        "grant", "fastpath", "candidates", "latency",
    )  # fmt: skip
    grant: Grant | None
    fastpath: bool
    candidates: int
    latency: float

    def __init__(
        self,
        now: float,
        ticket: Ticket,
        ctx: TraceContext | None,
        shards: ShardMap,
        readmits: int | None = None,
    ) -> None:
        self.now, self.ticket, self.ctx, self.shards = now, ticket, ctx, shards
        self.readmits = readmits
        self.booked = 0
        self.hops: list[PlacementHop] | None = None

    def hop(self, hop: PlacementHop) -> None:
        """Keep one protocol delivery or fault (:meth:`CausalObserver.hop`)."""
        if self.hops is None:
            self.hops = []
        self.hops.append(hop)

    @property
    def width(self) -> int:
        hops = self.booked if self.hops is None else len(self.hops)
        return hops + (1 if self.readmits is None else 2)

    def spans(self) -> list[Span]:
        now, rid = self.now, self.ticket.rid
        ctx = self.ctx or TraceContext.root(rid)
        hops = self.hops or direct_hops(self.shards, self.ticket.request, self.booked)
        spans = hop_spans(hops, now, ctx)
        accepted = self.grant is not None
        decided = "accepted" if accepted else "rejected"
        if self.readmits is not None:
            fields: dict[str, Any] = {"rid": rid, "origin": self.readmits}
            attempt = _hop("gateway.trace.readmit_attempt", now, ctx, fields)
            done = _hop("gateway.trace.readmit_decision", now, ctx, {**fields, "outcome": decided})
            return [attempt, *spans, done]
        reason = self.ticket.reject_reason
        shown = None if accepted or reason is None else reason.value
        fields = {"rid": rid, "outcome": decided, "reason": shown, "latency": self.latency}
        return [*spans, _hop("gateway.trace.decision", now, ctx, fields)]

    def event(self) -> tuple[float, str, dict[str, Any]]:
        """The ``gateway.submit`` event of a first admission."""
        rid, request, grant = self.ticket.rid, self.ticket.request, self.grant
        local = self.shards.is_local(request.ingress, request.egress)
        fields: dict[str, Any] = {
            "rid": rid,
            "ingress": request.ingress,
            "egress": request.egress,
            "volume": request.volume,
            "deadline": request.t_end,
            "outcome": "accepted" if grant is not None else "rejected",
            "path": "local" if local else "cross-shard",
            "fastpath": self.fastpath,
            "candidates": self.candidates,
            "latency": self.latency,
        }
        fields.update((self.ctx or TraceContext.root(rid)).fields())
        if grant is not None:
            fields.update(sigma=grant[0], tau=grant[1], bw=grant[2])
        else:
            fields["reason"] = _reason(self.ticket.reject_reason)
        return self.now, "gateway.submit", fields


class _Flushed(NamedTuple):
    """One flushed batch, stored once in both rings: its ``gateway.batch``
    span (``opened`` to ``now``) and its ``gateway.batch`` event, whose
    health fields are the :meth:`Gateway._health` readings at the flush."""

    opened: float
    now: float
    size: int
    ordering: str
    backlog_depth: float
    max_hold_age: float
    overcommit_proximity: float

    @property
    def width(self) -> int:
        return 1

    def spans(self) -> tuple[Span]:
        args = {"size": self.size, "ordering": self.ordering}
        return (Span("gateway.batch", self.opened, self.now, "gateway", 0, args),)

    def event(self) -> tuple[float, str, dict[str, Any]]:
        fields = {"size": self.size, "ordering": self.ordering}
        fields.update(zip(_HEALTH, self[4:]))
        return self.now, "gateway.batch", fields


#: The health readings a flush samples, in the order they are reported.
_HEALTH = ("backlog_depth", "max_hold_age", "overcommit_proximity")


#: The rejections a backlog parks: a shard was down or unreachable.
_PARKED = (RejectReason.BROKER_UNAVAILABLE, RejectReason.SHARD_UNREACHABLE)


def _reason(reason: RejectReason | None) -> str:
    """A rejected attempt's reason as reported (``unspecified`` if none)."""
    return reason.value if reason is not None else "unspecified"


class _Instruments:
    """The metric samples every decision or flush fires, bound once per
    telemetry handle (rarer verbs keep addressing the registry by name).

    Binding registers nothing: a family enters the registry — and
    ``/metrics``, and the artifact — with its first firing child.  What
    :class:`GatewayStats` counts is not fired here: :meth:`Gateway._collect`
    renders it when the registry is read.
    """

    __slots__ = ("telemetry", "latency", "_rejects_by_reason", "occupancy")

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        histogram = telemetry.metrics.bind_histogram
        self.latency = histogram(
            "gateway_admission_latency_seconds",
            "Admission latency in simulated seconds (queueing + retries + chaos).",
        )
        self._rejects_by_reason: dict[str, BoundCounter] = {}
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
    slo:
        Optional :class:`~repro.obs.slo.SloWatchdog` fed every first
        decision (what ``gateway_submits_total`` counts) and each flush's
        health sample, and evaluated at every batch flush; breaches are
        edge-triggered events, never admission decisions.

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
        self._observer = CausalObserver(lambda: self.telemetry)
        #: Trace context of the rids that joined another request's trace
        #: (rebookings, re-admissions).  Every other rid's context is the
        #: pure function ``TraceContext.root(rid)`` and is not stored.
        self._trace_roots: dict[int, TraceContext] = {}
        self._bound: _Instruments | None = None
        #: The handle :meth:`_collect` is registered with (when enabled).
        self._reporting: Telemetry | None = None
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
        self._overcommit_hwm = 0.0
        self.on_decision: Callable[[Ticket, float], None] | None = None
        self.journal = journal
        self._telemetry = telemetry
        self._clock = float("-inf")
        self._batch_opened = float("-inf")
        self._next_seq = 0
        self._next_rid = 0
        #: Every submission's row, by rid: a rid is taken and its row
        #: written in the same step.
        self.tickets = TicketTable()
        self._degradations: list[Degradation] = []
        if journal is not None:
            journal.set_header(self.header())

    def header(self) -> dict[str, Any]:
        """This gateway's configuration as its journal header records it
        (what :meth:`restored` builds a gateway back from)."""
        backoff = self.backoff
        header: dict[str, Any] = {
            "kind": "gateway",
            "platform": self.platform.to_dict(),
            "num_shards": self.num_shards,
            "batch_size": self.batcher.batch_size,
            "ordering": self.batcher.ordering.value,
            "policy": self.policy.name,
            "hold_ttl": self.hold_ttl,
            "backoff": {
                "base": backoff.base,
                "multiplier": backoff.multiplier,
                "max_attempts": backoff.max_attempts,
                "jitter": backoff.jitter,
            },
            "edge": None if self.edge is None else self.edge.limit.to_dict(),
            "chaos": None if self.chaos is None else self.chaos.to_dict(),
            "rpc_deadline": self.rpc_deadline,
            "backlog_limit": self.backlog_limit,
        }
        if self.malleable:
            # Key present only when the feature is on, so journals of
            # constant-rate gateways stay byte-identical.
            header["malleable"] = True
        return header

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

    @telemetry.setter
    def telemetry(self, handle: Telemetry) -> None:
        self._telemetry = handle  # the observer reads it per record

    def _advance(self, now: float) -> Telemetry:
        """Move the clock forward, flushing the previous instant's batch;
        returns the telemetry handle, read once for the caller's whole call.

        Every verb that changes :attr:`stats` comes through here before it
        counts, so this is where the collector follows the handle."""
        tel = self.telemetry
        if tel is not self._reporting:
            self._report_to(tel)
        if now < self._clock:
            raise ConfigurationError(f"time went backwards: {now} < {self._clock}")
        moved = now > self._clock
        if moved and len(self.batcher):
            self._flush(self._clock, tel)
        self._clock = now
        self.stats.holds_expired += self.coordinator.expire_holds(now)
        if moved and self._backlog:
            self._readmit(now, tel)
        return tel

    def _settle(self, now: float) -> None:
        """Advance to ``now`` and decide the open batch (lifecycle verbs
        act on decided reservations only)."""
        tel = self._advance(now)
        self._flush(self._clock, tel)

    def _record(self, op: str, now: float, **args: Any) -> None:
        if self.journal is not None:
            self.journal.append(op, now, **args)

    def _require_known(self, rid: int) -> None:
        """``KeyError`` unless ``rid`` is a reservation, decided or about to be.

        Asked of the ticket table, before settling: the settle may flush
        the very batch that decides ``rid``.  Edge-refused tickets never
        become reservations.
        """
        if not self.tickets.has(rid) or Ticket(self.tickets, rid).edge_refused:
            raise KeyError(f"unknown reservation {rid}")

    # ------------------------------------------------------------------
    # Causal tracing (observability only: never touches decisions,
    # journal, snapshot or replay)
    # ------------------------------------------------------------------
    def joined(self, trace: str) -> list[int]:
        """The rids that joined ``trace`` traced, as rebookings or re-admissions."""
        return [rid for rid, ctx in self._trace_roots.items() if ctx.trace_id == trace]

    def _ctx_of(self, rid: int) -> TraceContext:
        """``rid``'s position in its causal tree (a root unless it joined
        another request's trace)."""
        return self._trace_roots.get(rid) or TraceContext.root(rid)

    def _trace_ctx(self, rid: int) -> TraceContext | None:
        """:meth:`_ctx_of` when the handle keeps records, else ``None`` (no
        hop to mint)."""
        return self._ctx_of(rid) if self.telemetry.traced else None

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
        max_rate, wanted = lifecycle.check_submission(
            self.platform, self._next_rid, ingress, egress, volume, deadline, now, max_rate, profile
        )
        if origin is not None:
            self._require_known(origin)
        fields = ingress, egress, volume, deadline, max_rate, client, origin, wanted
        return Ticket(self.tickets, self._enqueue(now, self._advance(now), *fields))

    def submit_many(
        self,
        submissions: list[dict[str, Any]],
        *,
        now: float,
    ) -> list[Ticket | ReproError]:
        """Admit a whole wave of submissions at one instant, then decide.

        The batcher splits the wave at ``batch_size``.  Each entry is a
        keyword dict for :meth:`submit` minus ``now``; the trailing partial
        batch is flushed, so every returned ticket is decided.  A malformed
        entry fails alone: the :class:`~repro.core.errors.ReproError`
        :meth:`submit` raised for it takes its place in the returned list,
        and the rest of the wave is still submitted at ``now``.

        Runs synchronously on the caller's thread — safe to call from a
        single-threaded event loop between ``await`` points, because
        nothing here yields.  The wave's journal entries go out as one
        write before this returns (:meth:`~repro.gateway.journal.Journal.group`).
        """
        results: list[Ticket | ReproError] = []
        with self.journal.group() if self.journal is not None else nullcontext():
            for fields in submissions:
                try:
                    results.append(self.submit(**fields, now=now))
                except ReproError as exc:
                    results.append(exc)
            if len(self.batcher):
                self.drain(now)
        return results

    def submit_checked(self, entries: list[Submission], *, now: float) -> list[int | ReproError]:
        """:meth:`submit_many` of :data:`Submission` entries checked at their
        arrival (the serve frontier's wave), answered with rids, no ticket
        views.  Only the window is tested again, at ``now``: one that closed
        since fails its entry alone, as a malformed entry does there."""
        results: list[int | ReproError] = []
        tel: Telemetry | None = None
        with self.journal.group() if self.journal is not None else nullcontext():
            for ingress, egress, volume, deadline, max_rate, client, wanted in entries:
                try:
                    if not (deadline > now and max_rate >= volume / (deadline - now) * _SLACK):
                        check_request(self._next_rid, volume, now, deadline, max_rate)  # raises
                except InvalidRequestError as exc:
                    results.append(exc)
                    continue
                if tel is None:  # the first entry that stands moves the clock
                    tel = self._advance(now)
                fields = ingress, egress, volume, deadline, max_rate, client, None, wanted
                results.append(self._enqueue(now, tel, *fields))
            if len(self.batcher):
                self.drain(now)
        return results

    def _enqueue(
        self, now: float, tel: Telemetry, ingress: int, egress: int, volume: float,
        deadline: float, max_rate: float, client: str, origin: int | None,
        wanted: RateProfile | None,
    ) -> int:  # fmt: skip
        """One checked submission at ``now`` (the clock advanced to it):
        take its rid, write its row, journal it, then refuse it at the edge
        or batch it.  Both entry points' one path; returns the rid."""
        rid = self._next_rid
        self._next_rid = rid + 1
        seq = self._next_seq
        self._next_seq = seq + 1
        tickets = self.tickets
        fields = ingress, egress, volume, now, deadline, max_rate
        tickets.add(rid, seq, client, origin, *fields, wanted)
        if self.journal is not None:
            self.journal.append(
                "submit", now, rid=rid, client=client, ingress=ingress, egress=egress,
                volume=volume, deadline=deadline, max_rate=max_rate, origin=origin,
                # Only a stepwise submit has the key: constant-rate lines keep their bytes.
                **({} if wanted is None else {"profile": wanted.to_list()}),
            )  # fmt: skip
        self.stats.submits += 1
        ctx: TraceContext | None = None
        if tel.traced and origin is not None:
            # A rebooking joins the original request's trace so one
            # `grid-obs explain` shows the whole lineage.
            ctx = self._trace_roots[rid] = self._ctx_of(origin).child(f"rebook:{rid}")
        if self.edge is not None and not self.edge.admit(client, volume, now):
            tickets.refuse(rid, self.edge.retry_after(client, volume, now))
            self.stats.edge_refused += 1
            if tel.traced:
                tel.tracer.store(_Submitted(now, Ticket(tickets, rid), ctx, None))
            if tel.enabled:
                tel.metrics.counter(
                    "gateway_edge_refusals_total",
                    "Submissions refused by the per-client edge token bucket.",
                ).inc(client=client)
                tel.emit("gateway.edge_refusal", now, rid=rid, client=client, volume=volume)
            return rid
        batcher = self.batcher
        pending = batcher.enqueue((seq, rid, *fields, wanted))
        if pending == 1:
            self._batch_opened = now
        if tel.traced:
            tel.tracer.store(_Submitted(now, Ticket(tickets, rid), ctx, pending))
        if pending >= batcher.batch_size:
            self._flush(now, tel)
        return rid

    def drain(self, now: float | None = None) -> None:
        """Force the open batch to decide now (journaled — order matters)."""
        at = self._clock if now is None else now
        tel = self._advance(at)
        self._record("drain", at)
        self._flush(at, tel)

    def _flush(self, now: float, tel: Telemetry) -> None:
        """Decide every pending admission of the open batch, in batch order."""
        batch = self.batcher.drain(now)
        if not batch:
            return
        bound = None
        if tel.enabled:  # the hot metric samples, rebound if the handle changed
            bound = self._bound
            if bound is None or bound.telemetry is not tel:
                bound = self._bound = _Instruments(tel)
        for pending in batch:
            self._decide(pending, now, tel, bound)
        self.stats.batches += 1
        if bound is not None:
            bound.occupancy.observe(float(len(batch)))
        if tel.traced or self.slo is not None:
            health = self._health(now)
            if tel.traced:
                ordering = self.batcher.ordering.value
                record = _Flushed(self._batch_opened, now, len(batch), ordering, *health)
                tel.tracer.store(record)
                tel.store(record)
            if self.slo is not None:
                for metric, value in zip(_HEALTH, health):
                    self.slo.sample(metric, now, value)
                self.slo.evaluate(now, telemetry=tel)
        self._publish_chaos()

    def _admit(
        self, pending: Pending, now: float, tel: Telemetry, trace: _Admission | None,
        waiting_since: float,
    ) -> tuple[TwoPhaseOutcome, float]:  # fmt: skip
        """Run one admission of ``pending`` (whose row is pending) through
        the coordinator and decide its row.

        The only code that turns a ``coordinator.reserve`` outcome into
        state: first admissions (:meth:`_decide`) and backlog
        re-admissions (:meth:`_readmit`) both come through here, so every
        protocol count an attempt burned reaches :class:`GatewayStats`
        (and from there ``/metrics``) whichever of the two made it.
        Returns the outcome and the
        admission latency in simulated time: queueing since
        ``waiting_since`` plus the retry backoff and chaos waiting the
        transaction burned.  A traced attempt's ``trace`` collects the
        placement's hops, is filled with the outcome and is stored.
        """
        _, rid, ingress, egress, volume, t_start, t_end, max_rate, wanted = pending
        self._observer.open = trace
        outcome = self.coordinator.reserve(
            rid, ingress, egress, volume, t_start, t_end, max_rate, self.policy, now,
            profile=wanted, malleable=self.malleable,
        )  # fmt: skip
        self._observer.open = None
        self.tickets.decide(rid, outcome.grant, outcome.probe.reason)
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
            trace.grant, trace.booked = outcome.grant, outcome.booked
            trace.fastpath, trace.candidates = outcome.fastpath, outcome.probe.candidates
            trace.latency = latency
            tel.tracer.store(trace)
        if outcome.grant is not None and (tel.traced or self.slo is not None):
            self._note_port_peaks(ingress, egress)
        return outcome, latency

    def _decide(
        self, pending: Pending, now: float, tel: Telemetry, bound: _Instruments | None
    ) -> None:
        """Decide one batched submission; publish the outcome (``bound``:
        the hot metric samples, when ``tel`` is enabled)."""
        rid = pending[1]
        trace: _Admission | None = None
        if tel.traced:
            ticket = Ticket(self.tickets, rid)
            trace = _Admission(now, ticket, self._trace_roots.get(rid), self.shard_map)
        # Queueing counts from the instant the request's window opened.
        outcome, latency = self._admit(pending, now, tel, trace, pending[5])
        stats = self.stats
        if outcome.local:
            stats.local += 1
        else:
            stats.cross_shard += 1
        if outcome.fastpath:
            stats.fastpath_hits += 1
        accepted = outcome.grant is not None
        if accepted:
            stats.accepted += 1
        else:
            reason = outcome.probe.reason
            stats.rejected += 1
            if reason is RejectReason.SHARD_UNREACHABLE:
                stats.shard_unreachable += 1
            # Park an infrastructure rejection for re-admission: a capacity
            # or window reject is final, and a row with an origin is not
            # parked again (its original rid is the backlog's entry).
            if (
                reason in _PARKED
                and len(self._backlog) < self.backlog_limit
                and self.tickets.origin[rid - self.tickets.base] < 0
            ):
                self._backlog.append(rid)
                stats.backlogged += 1
        # The watchdog judges what /metrics counts: first decisions only.
        if self.slo is not None:
            self.slo.admission(now, accepted=accepted, latency=latency)
        if bound is not None:
            bound.latency.observe(latency)
            if not accepted:
                bound.rejects(_reason(outcome.probe.reason)).inc()
            if trace is not None:
                tel.store(trace)
        if self.on_decision is not None:
            self.on_decision(Ticket(self.tickets, rid), now)

    # ------------------------------------------------------------------
    # Degraded-mode re-admission (the backlog)
    # ------------------------------------------------------------------
    def _readmit(self, now: float, tel: Telemetry) -> None:
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
        tickets = self.tickets
        for rid in self._backlog:
            parked = Ticket(tickets, rid)
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
            fresh = self._next_rid
            self._next_rid += 1
            c = candidate
            fields = (c.ingress, c.egress, c.volume, c.t_start, c.t_end, c.max_rate)
            tickets.add(fresh, parked.seq, parked.client, rid, *fields, None)
            trace: _Admission | None = None
            if tel.traced:
                # Re-admissions stay on the original request's trace: the
                # fresh rid is one more hop of the same causal story.
                ctx = self._trace_roots[fresh] = self._ctx_of(rid).child(f"readmit:{fresh}")
                trace = _Admission(now, Ticket(tickets, fresh), ctx, self.shard_map, readmits=rid)
            # The client has been waiting since the *original* window opened.
            pending = (parked.seq, fresh, *fields, None)
            outcome, _ = self._admit(pending, now, tel, trace, original.t_start)
            if outcome.grant is None:
                tickets.burn(fresh)  # the refused attempt leaves no ticket
                keep.append(rid)
                continue
            self.stats.readmitted += 1
            admitted.append((rid, fresh))
        self._backlog = keep
        if tel.enabled:
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
    def _health(self, now: float) -> tuple[float, float, float]:
        """Point-in-time health gauges, in :data:`_HEALTH` order: backlog
        depth, oldest live hold's age, overcommit proximity.

        ``overcommit_proximity`` is the worst all-time ``peak / capacity``
        ratio across ports — 1.0 is a fully-booked port, anything beyond
        the capacity slack is an invariant violation in the making.  It is
        a high-water mark advanced by :meth:`_note_port_peaks` as bookings
        confirm, so sampling here costs O(live holds), not a rescan of
        every port timeline at every flush.
        """
        max_age = 0.0
        for broker in self.brokers:
            if broker.due is None:  # no live hold
                continue
            for hold in broker.holds():
                max_age = max(max_age, now - (hold.expires - self.hold_ttl))
        return float(len(self._backlog)), max_age, self._overcommit_hwm

    def _note_port_peaks(self, ingress: int, egress: int) -> None:
        """Advance the overcommit high-water mark after a confirmed booking.

        Only the two ports the booking touched can move the worst
        ``peak / capacity`` ratio, so the probe stays O(1) per admission:
        each port's :attr:`~repro.core.ledger.Port.peak` is what its last
        booking's kernel call computed, not a re-read.  Cancellations,
        compensations and broker restarts can later lower the live peaks;
        the mark deliberately keeps the worst proximity the run ever
        reached.
        """
        hwm = self._overcommit_hwm
        for port in self.coordinator.ports(ingress, egress):
            if port.capacity > 0 and port.peak / port.capacity > hwm:
                hwm = port.peak / port.capacity
        self._overcommit_hwm = hwm

    # ------------------------------------------------------------------
    # Metrics: what the registry reads of stats and the channels
    # ------------------------------------------------------------------
    def _report_to(self, tel: Telemetry) -> None:
        """Move :meth:`_collect` to handle ``tel``: the registry it leaves
        folds it one last time, an enabled ``tel`` starts from the counts
        as they stand."""
        if self._reporting is not None and self._reporting.enabled:
            self._reporting.metrics.unregister(self._collect)
        self._reporting = tel
        if tel.enabled:
            tel.metrics.register(self._collect)

    def _collect(self) -> dict[Sample, float]:
        """The counter samples ``/metrics`` shows of :attr:`stats` and of
        the channels' own counts, as absolute values (the registry folds
        what each grew by since it last read it)."""
        stats = vars(self.stats)
        samples = {sample: stats[field] for field, sample in _COLLECTED.items()}
        samples[_FASTPATH_MISS] = stats["local"] + stats["cross_shard"] - stats["fastpath_hits"]
        batches = "gateway_batches_total", "Admission batches flushed, by ordering."
        samples[(*batches, (("ordering", self.batcher.ordering.value),))] = stats["batches"]
        if self.chaos is not None:
            for channel in self.coordinator.channels:
                counts, shard = vars(channel.stats), (("shard", str(channel.shard_id)),)
                for field, (family, help_text) in _CHANNEL_COUNTERS.items():
                    samples[family, help_text, shard] = counts[field]
        return samples

    def _publish_chaos(self) -> None:
        """Mirror the channels' chaos counters, summed, into
        ``stats.chaos_*`` (which snapshots and checkpoints carry).  With no
        chaos configured this returns immediately: nothing moves."""
        if self.chaos is None:
            return
        channels = [vars(channel.stats) for channel in self.coordinator.channels]
        for name in _CHAOS_COUNTERS:
            setattr(self.stats, f"chaos_{name}", sum(counts[name] for counts in channels))

    # ------------------------------------------------------------------
    # Lifecycle operations (the rules live in repro.gateway.lifecycle)
    # ------------------------------------------------------------------
    def cancel(self, rid: int, *, now: float) -> bool:
        """Cancel a reservation; the unconsumed tail returns to its shards."""
        self._require_known(rid)
        self._settle(now)
        self._record("cancel", now, rid=rid)
        released = lifecycle.terminate(
            Ticket(self.tickets, rid), now, ReservationState.CANCELLED, self.coordinator
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
        reservation = Ticket(self.tickets, rid)
        if not lifecycle.terminate(reservation, now, ReservationState.ABORTED, self.coordinator):
            return False
        self.stats.aborted += 1
        self._observer.note("gateway.trace.abort", now, self._trace_ctx(rid), {"rid": rid})
        tel = self.telemetry
        if tel.enabled:
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
    ) -> list[Ticket]:
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
            self.tickets,
            degradation,
            now,
            self.coordinator,
            malleable=self.malleable,
        )
        self.stats.displaced += len(displaced)
        self.stats.reshaped += len(reshaped_rids)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "gateway_degrades_total", "Capacity degradations applied, by side."
            ).inc(side=side)
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
        ok = lifecycle.reshape_tail(Ticket(self.tickets, rid), now, self.coordinator)
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
        tel = self.telemetry
        if tel.enabled:
            tel.emit("gateway.restart", now, shard=shard)
        if self._backlog:
            self._readmit(now, tel)

    def _broker(self, shard: int) -> ShardBroker:
        if not (0 <= shard < len(self.brokers)):
            raise ConfigurationError(f"no shard {shard} (have {len(self.brokers)})")
        return self.brokers[shard]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def get(self, rid: int) -> Ticket:
        """A view of a submission's ticket by reservation id."""
        return self.tickets.get(rid)

    def reservations(self) -> list[Ticket]:
        """Every decision (confirmed or rejected) so far, in rid order —
        not the still-pending tickets, nor the edge-refused ones."""
        return [Ticket(self.tickets, rid) for rid in self.tickets.rids(DECIDED)]

    def pending(self) -> int:
        """Submissions waiting in the open batch."""
        return len(self.batcher)

    def backlogged(self, rid: int) -> bool:
        """Is ``rid`` parked in the re-admission backlog?"""
        return rid in self._backlog

    def degradations(self) -> list[Degradation]:
        """Every capacity degradation applied so far, in order."""
        return list(self._degradations)

    def max_overcommit(self) -> float:
        """Worst ``usage − capacity`` across every shard (≤ 0 ⇔ valid)."""
        return max(broker.max_overcommit() for broker in self.brokers)

    def port_usage(self, t: float) -> tuple[list[float], list[float]]:
        """Committed bandwidth per (ingress, egress) port at time ``t``."""
        broker_for = self.coordinator.broker_for
        ins = [
            broker_for("ingress", i).port("ingress", i).usage.usage_at(t)
            for i in range(self.platform.num_ingress)
        ]
        outs = [
            broker_for("egress", e).port("egress", e).usage.usage_at(t)
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
        origins, base = self.tickets.origin, self.tickets.base
        origin = origins[rid - base]
        while origin >= 0:
            rid, origin = origin, origins[origin - base]
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
            "pending": [pending[0] for pending in self.batcher._pending],
            "reservations": lifecycle.reservation_rows(self.reservations()),
            "edge_refused": self.tickets.rids(REFUSED),
            "backlog": list(self._backlog),
            "shards": [broker.snapshot() for broker in self.brokers],
            "degradations": [d.to_dict() for d in self._degradations],
            "stats": self.stats.as_dict(),
        }

    def checkpoint(self) -> None:
        """Journal the gateway's complete state as one ``checkpoint`` entry.

        :meth:`resume` restores the last checkpoint and replays only the
        entries after it; :meth:`replay` skips checkpoints.  Changes nothing
        (no clock move, no flush), so a pending submission would be lost
        from the checkpointed state: ``ConfigurationError`` while the open
        batch holds one — :meth:`drain` first.
        """
        if len(self.batcher):
            raise ConfigurationError(
                f"cannot checkpoint with {len(self.batcher)} pending submission(s); drain first"
            )
        self._record("checkpoint", self._clock, state=self.dump_state())

    def dump_state(self) -> dict[str, Any]:
        """Everything :meth:`replay` would rebuild, JSON-able (what
        :meth:`checkpoint` journals).  Observability-only fields — trace
        roots, the overcommit high-water mark — are not state: replay does
        not rebuild them either."""
        return {
            "clock": self._clock,
            "next_rid": self._next_rid,
            "next_seq": self._next_seq,
            "stats": self.stats.as_dict(),
            "tickets": self.tickets.dump_state(),
            "backlog": list(self._backlog),
            "degradations": [d.to_dict() for d in self._degradations],
            "brokers": [broker.dump_state() for broker in self.brokers],
            "channels": [channel.dump_state() for channel in self.coordinator.channels],
            "edge": None if self.edge is None else self.edge.dump_state(),
        }

    def _load_state(self, state: dict[str, Any]) -> None:
        """Replace this (freshly configured) gateway's state by a
        :meth:`dump_state` of a gateway of the same configuration."""
        if len(state["brokers"]) != len(self.brokers) or (state["edge"] is None) != (
            self.edge is None
        ):
            raise ConfigurationError("checkpoint does not match the journal header")
        self._clock = state["clock"]
        self._next_rid = state["next_rid"]
        self._next_seq = state["next_seq"]
        self.stats = GatewayStats(**state["stats"])
        tickets = state["tickets"]
        self.tickets = (
            TicketTable.from_rows(tickets)  # a checkpoint written before tickets were columns
            if isinstance(tickets, list)
            else TicketTable.from_state(tickets)
        )
        self._backlog = list(state["backlog"])
        self._degradations = [Degradation(**d) for d in state["degradations"]]
        for broker, dumped in zip(self.brokers, state["brokers"]):
            broker.load_state(dumped)
        for channel, dumped in zip(self.coordinator.channels, state["channels"]):
            channel.load_state(dumped)
        if self.edge is not None:
            self.edge.load_state(state["edge"])

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
        return cls.restored(journal.header, entries=journal)

    @classmethod
    def restored(
        cls,
        header: dict[str, Any],
        checkpoint: JournalEntry | None = None,
        entries: Iterable[JournalEntry] = (),
    ) -> Gateway:
        """A journal-less gateway of a journal header's configuration: a
        ``checkpoint`` entry's state if given, then ``entries`` replayed under a
        :class:`NullTelemetry`, process-wide too (refuses what :meth:`replay` does)."""
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
            telemetry=NullTelemetry(),
        )
        if checkpoint is not None:
            gateway._load_state(checkpoint.args["state"])
        with use_telemetry(gateway.telemetry):
            lifecycle.replay_ops(gateway, entries)
        gateway._telemetry = None
        return gateway

    @classmethod
    def resume(
        cls,
        journal: Journal,
        *,
        telemetry: Telemetry | None = None,
        slo: SloWatchdog | None = None,
    ) -> Gateway:
        """Rebuild a gateway from its journal and keep *living* on it.

        The service plane's restart path.  With a ``checkpoint`` in the
        journal the last one is restored and only the entries after it are
        replayed (both come from :meth:`Journal.last_checkpoint
        <repro.gateway.journal.Journal.last_checkpoint>`, so a loaded
        journal never decodes the lines before them); without one this is
        :meth:`replay`.  Either way the rebuild reports to no one, neither
        ``telemetry`` nor the process-wide handle (replayed history must not
        re-emit metrics or SLO samples — it already happened), then this
        attaches the live handles and re-arms the journal so new operations
        append after the recorded ones.
        """
        checkpoint, tail = journal.last_checkpoint() or (None, journal)
        gateway = cls.restored(journal.header, checkpoint, tail)
        gateway._telemetry = telemetry  # the observer reads it per record
        gateway.slo = slo
        gateway.journal = journal
        return gateway
