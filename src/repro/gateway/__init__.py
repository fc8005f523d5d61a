"""Sharded, batched admission gateway with two-phase cross-shard reservation.

The paper's §5.4 deployment is one admission service: a client submits a
transfer and is answered with a window and a rate.  This package is that
service.  The paper's model is inherently federated (a request touches
exactly one ingress and one egress access point, and Eq. 1 constrains
only per-port capacity), so admission state partitions cleanly across
per-access-point brokers, the architecture Chen & Primet's
flexible-reservation framework argues for:

- :class:`~repro.gateway.sharding.ShardMap` partitions access points
  across N **shard brokers**;
- :class:`~repro.gateway.broker.ShardBroker` owns the ledger slices of
  its ports (usage + degradation timelines, prepare-holds, the
  per-port all-time peak behind the headroom fast path);
- :class:`~repro.gateway.batch.Batcher` coalesces concurrently-arriving
  requests into admission batches ordered by a pluggable policy
  (FIFO / min-laxity / max-value);
- :class:`~repro.gateway.twophase.TwoPhaseCoordinator` runs the
  cross-shard reservation protocol: prepare-hold on the ingress and
  egress brokers, then commit — or abort with every hold released, so a
  crashed peer never strands capacity;
- :class:`~repro.gateway.gateway.Gateway` is the client-facing facade:
  submit / cancel / abort / degrade with journaling
  (:mod:`~repro.gateway.journal`), crash
  :meth:`~repro.gateway.gateway.Gateway.replay`, and ``gateway_*``
  telemetry on every decision;
- :mod:`~repro.gateway.lifecycle` holds the rules a reservation follows
  after admission (release, re-shape, displacement, re-admission,
  replay).

The default gateway is one shard and batch size 1: every admission is
decided at submit against one ledger.  Sharding and batching change
*where* the work happens, never *what* is decided (the shard/batch
sweep test asserts this).
"""

from .batch import AdmissionOrdering, Batcher
from .broker import BrokerUnavailable, Hold, ShardBroker, hold_expired
from .edge import EdgeLimit, EdgeLimiter
from .gateway import Gateway, GatewayStats
from .invariants import InvariantReport, check_gateway
from .journal import Journal, JournalEntry
from .rpc import (
    Channel,
    ChannelStats,
    ChannelTimeout,
    ChaosPolicy,
    EdgeChaos,
    Partition,
    ShardUnreachable,
)
from .sharding import ShardMap
from .tickets import ReservationState, Ticket, TicketTable
from .twophase import BackoffSchedule, TwoPhaseCoordinator, TwoPhaseOutcome

__all__ = [
    "AdmissionOrdering",
    "BackoffSchedule",
    "Batcher",
    "BrokerUnavailable",
    "Channel",
    "ChannelStats",
    "ChannelTimeout",
    "ChaosPolicy",
    "EdgeChaos",
    "EdgeLimit",
    "EdgeLimiter",
    "Gateway",
    "GatewayStats",
    "Hold",
    "InvariantReport",
    "Journal",
    "JournalEntry",
    "Partition",
    "ReservationState",
    "ShardBroker",
    "ShardMap",
    "ShardUnreachable",
    "Ticket",
    "TicketTable",
    "TwoPhaseCoordinator",
    "TwoPhaseOutcome",
    "check_gateway",
    "hold_expired",
]
