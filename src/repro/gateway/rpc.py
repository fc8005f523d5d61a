"""The coordinator↔broker message layer: seeded, deterministic chaos.

Every protocol call a :class:`~repro.gateway.twophase.TwoPhaseCoordinator`
makes against a :class:`~repro.gateway.broker.ShardBroker` — ``prepare``,
``commit``, ``abort_hold``, ``book_pair`` and the compensation ``release``
— travels through a :class:`Channel`.  With no :class:`ChaosPolicy`
attached a delivery is the broker call itself (zero RNG draws, no stats),
and the coordinator only runs the protocol at all when a broker is down:
a chaos-free admission with both brokers up is booked directly.

With a policy attached, each delivery is subjected to the faults a real
network boundary exhibits, all sampled from a per-edge ``random.Random``
seeded from ``(policy.seed, shard_id)`` and all accounted in **simulated
time** (GL001/GL002 clean):

- **drop** — the message (or its reply) is lost; the caller sees a
  :class:`ChannelTimeout` after ``timeout_cost`` simulated seconds.  Half
  of the drops lose the *reply*: the broker executed the call, the caller
  doesn't know — the case idempotency keys exist for;
- **duplicate** — the message is delivered twice (at-least-once
  delivery); the broker-side idempotency table must absorb the replay;
- **delay / latency** — the call succeeds but burns simulated seconds,
  surfaced through :attr:`ChannelStats.latency`;
- **partition** — a shard is unreachable over ``[start, end)``; every
  unreliable delivery times out until the partition heals;
- **crash_after_prepare / crash_after_commit** — the broker process dies
  right after acknowledging, wiping its volatile holds: the
  crash-mid-2PC hazard the presumed-abort protocol must survive.

Compensation releases are delivered with ``reliable=True`` — they model a
durable compensation record (a write-ahead log entry replayed until
acknowledged), so a partial two-phase commit can always be undone.
Aborts stay *unreliable* on purpose: a dropped abort strands the hold
until the broker's TTL sweep reclaims it, exercising presumed-abort.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, TypeVar

from ..core.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.profile import Segment
    from ..obs.causal import CausalObserver
    from .broker import Hold, ShardBroker

__all__ = [
    "Channel",
    "ChannelStats",
    "ChannelTimeout",
    "ChaosPolicy",
    "EdgeChaos",
    "Partition",
    "ShardUnreachable",
]

_T = TypeVar("_T")

#: Mixes the policy seed and the shard id into one RNG seed; any odd
#: multiplier works, it only needs to keep distinct shards' streams apart.
_SEED_STRIDE = 1_000_003


class ChannelTimeout(ReproError):
    """One delivery was lost (drop or partition); the caller timed out.

    ``cost`` is the simulated seconds the caller waited before concluding
    loss — the coordinator adds it to the transaction's virtual clock and
    its retry deadline budget.
    """

    def __init__(self, message: str, *, cost: float = 0.0) -> None:
        super().__init__(message)
        self.cost = cost


class ShardUnreachable(ReproError):
    """Retry/deadline budget exhausted on timeouts: give the shard up.

    Terminal for the transaction (mapped to the machine-readable
    ``shard-unreachable`` :class:`~repro.core.booking.RejectReason`), not
    for the request: the gateway backlog re-admits it once the shard
    answers again.
    """


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    if value < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class EdgeChaos:
    """Fault probabilities and costs of one coordinator→shard edge."""

    #: Probability a delivery is lost (half request-lost, half reply-lost).
    drop: float = 0.0
    #: Probability the message is delivered twice.
    duplicate: float = 0.0
    #: Probability the delivery is slow (adds ``delay_cost`` sim seconds).
    delay: float = 0.0
    #: Simulated seconds a sampled delay costs.
    delay_cost: float = 0.0
    #: Fixed simulated seconds every delivery on this edge costs.
    latency: float = 0.0
    #: Probability the broker crashes right after acknowledging a prepare.
    crash_after_prepare: float = 0.0
    #: Probability the broker crashes right after acknowledging a commit.
    crash_after_commit: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "crash_after_prepare", "crash_after_commit"):
            _check_probability(name, getattr(self, name))
        for name in ("delay_cost", "latency"):
            _check_nonnegative(name, getattr(self, name))

    def to_dict(self) -> dict[str, float]:
        """Plain-dict form (journal header)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> EdgeChaos:
        """Inverse of :meth:`to_dict`."""
        return cls(**{f.name: float(data.get(f.name, 0.0)) for f in fields(cls)})


@dataclass(frozen=True, slots=True)
class Partition:
    """Shard ``shard`` is unreachable over ``[start, end)`` (sim time)."""

    shard: int
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if not (self.end > self.start):
            raise ConfigurationError(f"empty partition window [{self.start}, {self.end})")

    def covers(self, now: float) -> bool:
        """Is the partition active at ``now``?"""
        return self.start <= now < self.end

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; an unhealed partition stores ``end: None``."""
        return {
            "shard": self.shard,
            "start": self.start,
            "end": None if math.isinf(self.end) else self.end,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Partition:
        """Inverse of :meth:`to_dict`."""
        end = data.get("end")
        return cls(
            shard=int(data["shard"]),
            start=float(data["start"]),
            end=math.inf if end is None else float(end),
        )


@dataclass(frozen=True)
class ChaosPolicy:
    """The full fault configuration of a gateway's coordinator↔broker mesh.

    ``default`` applies to every edge; ``edges`` overrides per shard.
    The policy is immutable and serialisable (it rides in the journal
    header), and together with its ``seed`` makes every chaotic run a
    deterministic function of the operation stream — which is exactly why
    :meth:`~repro.gateway.gateway.Gateway.replay` converges under chaos.
    """

    seed: int = 0
    default: EdgeChaos = EdgeChaos()
    #: Per-shard overrides as ``(shard_id, EdgeChaos)`` pairs.
    edges: tuple[tuple[int, EdgeChaos], ...] = ()
    partitions: tuple[Partition, ...] = ()
    #: Simulated seconds one lost delivery costs the caller.
    timeout_cost: float = 30.0

    def __post_init__(self) -> None:
        _check_nonnegative("timeout_cost", self.timeout_cost)

    # ------------------------------------------------------------------
    def edge_for(self, shard: int) -> EdgeChaos:
        """The fault profile of the edge to ``shard``."""
        for shard_id, edge in self.edges:
            if shard_id == shard:
                return edge
        return self.default

    def is_partitioned(self, shard: int, now: float) -> bool:
        """Is ``shard`` inside any partition window at ``now``?"""
        return any(p.shard == shard and p.covers(now) for p in self.partitions)

    # ------------------------------------------------------------------
    # Canned scenarios (the chaos-matrix vocabulary)
    # ------------------------------------------------------------------
    @classmethod
    def lossy(
        cls,
        *,
        seed: int = 0,
        drop: float = 0.15,
        duplicate: float = 0.05,
        delay: float = 0.10,
        delay_cost: float = 2.0,
        timeout_cost: float = 30.0,
    ) -> ChaosPolicy:
        """A uniformly lossy mesh: drops, duplicates, slow deliveries."""
        return cls(
            seed=seed,
            default=EdgeChaos(
                drop=drop, duplicate=duplicate, delay=delay, delay_cost=delay_cost
            ),
            timeout_cost=timeout_cost,
        )

    @classmethod
    def duplicate_storm(cls, *, seed: int = 0, duplicate: float = 0.6) -> ChaosPolicy:
        """At-least-once gone wild: most messages are delivered twice."""
        return cls(seed=seed, default=EdgeChaos(duplicate=duplicate))

    @classmethod
    def slow(cls, *, seed: int = 0, latency: float = 2.0) -> ChaosPolicy:
        """A uniformly slow mesh: every delivery costs ``latency`` seconds."""
        return cls(seed=seed, default=EdgeChaos(latency=latency))

    @classmethod
    def with_partition(
        cls,
        shard: int,
        start: float,
        end: float = math.inf,
        *,
        seed: int = 0,
        timeout_cost: float = 30.0,
    ) -> ChaosPolicy:
        """One shard unreachable over ``[start, end)``, otherwise clean."""
        return cls(
            seed=seed,
            partitions=(Partition(shard=shard, start=start, end=end),),
            timeout_cost=timeout_cost,
        )

    @classmethod
    def crash_mid_2pc(
        cls,
        *,
        seed: int = 0,
        crash_after_prepare: float = 0.08,
        crash_after_commit: float = 0.02,
    ) -> ChaosPolicy:
        """Brokers that die right after acknowledging a protocol phase."""
        return cls(
            seed=seed,
            default=EdgeChaos(
                crash_after_prepare=crash_after_prepare,
                crash_after_commit=crash_after_commit,
            ),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (journal header / reports)."""
        return {
            "seed": self.seed,
            "timeout_cost": self.timeout_cost,
            "default": self.default.to_dict(),
            "edges": {str(shard): edge.to_dict() for shard, edge in self.edges},
            "partitions": [p.to_dict() for p in self.partitions],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ChaosPolicy:
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(data.get("seed", 0)),
            timeout_cost=float(data.get("timeout_cost", 30.0)),
            default=EdgeChaos.from_dict(data.get("default") or {}),
            edges=tuple(
                sorted(
                    (int(shard), EdgeChaos.from_dict(edge))
                    for shard, edge in (data.get("edges") or {}).items()
                )
            ),
            partitions=tuple(
                Partition.from_dict(p) for p in (data.get("partitions") or [])
            ),
        )


@dataclass
class ChannelStats:
    """What one channel did to its deliveries (all deterministic)."""

    calls: int = 0
    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    partitioned: int = 0
    crashes: int = 0
    #: Ambiguous outcomes resolved in the caller's favour by a durable-log
    #: read (termination probe answered "it landed").
    recovered: int = 0
    #: Simulated seconds of latency/delay accrued by successful deliveries.
    latency: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (reports / telemetry deltas)."""
        return dict(vars(self))


class Channel:
    """One coordinator→broker edge; the only sanctioned protocol path.

    With ``policy=None`` :meth:`deliver` runs the broker call as-is — no
    RNG draw, no stats — and behaviour is bit-identical to calling the
    broker directly.
    """

    def __init__(
        self,
        broker: ShardBroker,
        policy: ChaosPolicy | None = None,
        observer: CausalObserver | None = None,
    ) -> None:
        self.broker = broker
        self.policy = policy
        self.observer = observer
        self.stats = ChannelStats()
        self._edge = policy.edge_for(broker.shard_id) if policy is not None else EdgeChaos()
        seed = policy.seed if policy is not None else 0
        self._rng = random.Random(seed * _SEED_STRIDE + broker.shard_id + 1)

    # ------------------------------------------------------------------
    # Causal tracing: the channel is where faults become visible, so it
    # is the channel that annotates them onto the request's timeline.
    # ------------------------------------------------------------------
    def observe(self, cat: str, what: str, hop: str, detail: dict[str, Any] | None = None) -> None:
        """Report a delivery (``rpc.<op>``) or a fault (``chaos.<kind>``,
        whose ``detail`` leads with the ``op`` it struck) as ``hop`` of the
        admission being placed; the observer keeps it only when that
        admission is traced."""
        if self.observer is not None:
            self.observer.hop(cat, what, self.broker.shard_id, hop, detail)

    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        """The shard this channel talks to."""
        return self.broker.shard_id

    def partitioned(self, now: float) -> bool:
        """Is the edge inside a partition window at ``now``?"""
        return self.policy is not None and self.policy.is_partitioned(
            self.broker.shard_id, now
        )

    def serviceable(self, now: float) -> bool:
        """Would a call at ``now`` reach a live broker? (Read-only probe —
        draws nothing, so it is safe to gate re-admission attempts on.)"""
        return not self.broker.crashed and not self.partitioned(now)

    # ------------------------------------------------------------------
    # Termination protocol: durable-log reads
    # ------------------------------------------------------------------
    def resolved_committed(self, hold_id: int, *, hop: str = "") -> bool:
        """Did ``hold_id``'s commit land, per the broker's durable log?

        The coordinator's termination-protocol read for an ambiguous
        commit (every acknowledgement lost): like compensation records it
        is modelled reliable — a recovery read of the WAL, not a fresh
        delivery — so it draws nothing and ignores partitions.
        """
        landed = self.broker.resolution_of(hold_id) == "committed"
        if landed:
            self.stats.recovered += 1
            self.observe("rpc", "commit", hop, {"outcome": "recovered", "hold_id": hold_id})
        return landed

    def booking_landed(self, rid: int, *, hop: str = "") -> bool:
        """Did the pair booking keyed ``rid`` land?  (Reliable log read,
        the :meth:`resolved_committed` analogue for the local fast path.)"""
        landed = self.broker.was_booked(rid)
        if landed:
            self.stats.recovered += 1
            self.observe("rpc", "book_pair", hop, {"outcome": "recovered", "rid": rid})
        return landed

    # ------------------------------------------------------------------
    def deliver(
        self,
        op: str,
        invoke: Callable[[], _T],
        *,
        now: float,
        reliable: bool = False,
        hop: str = "",
        detail: Callable[[_T], dict[str, Any]] | None = None,
    ) -> _T:
        """Run one broker call through the configured chaos.

        Fault draws happen in a fixed order — partition, drop (then a
        coin for "request lost" vs "executed, reply lost"), delay,
        duplicate — and a draw only happens when its probability is
        non-zero, so an all-zero policy consumes no randomness at all.
        ``reliable=True`` (compensation records) bypasses partition,
        drop and duplication: only latency applies.  ``hop`` names this
        delivery in the causal trace of the admission it serves; every
        fault that strikes is annotated onto its timeline.  With no
        policy the call runs as-is and its hop carries ``detail(result)``.
        """
        if self.policy is None:
            result = invoke()
            self.observe("rpc", op, hop, detail(result) if detail is not None else None)
            return result
        self.stats.calls += 1
        edge = self._edge
        rng = self._rng
        if edge.latency > 0.0:
            self.stats.latency += edge.latency
        if not reliable:
            if self.partitioned(now):
                self.stats.partitioned += 1
                cost = self.policy.timeout_cost
                self.observe("chaos", "partition", hop, {"op": op, "cost": cost})
                raise ChannelTimeout(
                    f"{op}: shard {self.shard_id} is partitioned",
                    cost=self.policy.timeout_cost,
                )
            if edge.drop > 0.0 and rng.random() < edge.drop:
                self.stats.drops += 1
                reply_lost = rng.random() < 0.5
                self.observe(
                    "chaos",
                    "drop",
                    hop,
                    {
                        "op": op,
                        "mode": "reply-lost" if reply_lost else "request-lost",
                        "cost": self.policy.timeout_cost,
                    },
                )
                if reply_lost:
                    # The request reached the broker; only the reply died.
                    try:
                        invoke()
                    except ReproError:
                        pass
                raise ChannelTimeout(
                    f"{op}: delivery to shard {self.shard_id} lost",
                    cost=self.policy.timeout_cost,
                )
        if edge.delay > 0.0 and rng.random() < edge.delay:
            self.stats.delays += 1
            self.stats.latency += edge.delay_cost
            self.observe("chaos", "delay", hop, {"op": op, "cost": edge.delay_cost})
        result = invoke()
        if not reliable and edge.duplicate > 0.0 and rng.random() < edge.duplicate:
            self.stats.duplicates += 1
            self.observe("chaos", "duplicate", hop, {"op": op})
            try:
                invoke()  # at-least-once: the broker sees the replay too
            except ReproError:
                pass
        self.observe("rpc", op, hop)
        return result

    def _maybe_crash(self, probability: float, op: str, hop: str) -> None:
        """Sample a broker crash right after an acknowledged phase."""
        if (
            probability > 0.0
            and not self.broker.crashed
            and self._rng.random() < probability
        ):
            self.stats.crashes += 1
            self.observe("chaos", "crash", hop, {"op": op})
            self.broker.crash()

    # ------------------------------------------------------------------
    # Typed protocol wrappers (what the coordinator actually calls)
    # ------------------------------------------------------------------
    def prepare(
        self,
        side: str,
        port: int,
        segments: tuple[Segment, ...],
        *,
        rid: int,
        expires: float,
        now: float,
        hop: str = "",
    ) -> Hold | None:
        """Phase one through the channel; ``(rid, side)`` keys the replay,
        whatever the number of ``segments``."""
        hold = self.deliver(
            "prepare",
            lambda: self.broker.prepare(
                side, port, segments, rid=rid, expires=expires, key=(rid, side)
            ),
            now=now,
            hop=hop,
            detail=lambda held: {"rid": rid, "side": side, "held": held is not None},
        )
        if hold is not None:
            self._maybe_crash(self._edge.crash_after_prepare, "prepare", hop)
        return hold

    def commit(
        self, hold_id: int, *, now: float, hop: str = ""
    ) -> None:
        """Phase two through the channel."""
        self.deliver(
            "commit",
            lambda: self.broker.commit(hold_id),
            now=now,
            hop=hop,
            detail=lambda _: {"hold_id": hold_id},
        )
        self._maybe_crash(self._edge.crash_after_commit, "commit", hop)

    def abort_hold(
        self, hold_id: int, *, now: float, hop: str = ""
    ) -> bool:
        """Abort through the channel — deliberately *unreliable*: a lost
        abort strands the hold until the broker's TTL sweep (presumed
        abort), which is the failure mode the drills must exercise."""
        return self.deliver(
            "abort",
            lambda: self.broker.abort_hold(hold_id),
            now=now,
            hop=hop,
            detail=lambda _: {"hold_id": hold_id},
        )

    def book_pair(
        self,
        ingress: int,
        egress: int,
        segments: tuple[Segment, ...],
        *,
        rid: int,
        now: float,
        hop: str = "",
    ) -> None:
        """Shard-local atomic booking through the channel; ``rid`` keys it."""
        self.deliver(
            "book_pair",
            lambda: self.broker.book_pair(ingress, egress, segments, key=rid),
            now=now,
            hop=hop,
            detail=lambda _: {"rid": rid},
        )

    def release(
        self,
        side: str,
        port: int,
        segments: tuple[Segment, ...],
        *,
        now: float,
        hop: str = "",
    ) -> None:
        """Compensation release — ``reliable``: modelled as a durable
        compensation record replayed until acknowledged, so undoing a
        partial commit can never itself be lost."""
        self.deliver(
            "release",
            lambda: self.broker.release(side, port, segments),
            now=now,
            hop=hop,
            reliable=True,
            detail=lambda _: {"side": side},
        )
