"""Sharded, batched admission gateway with two-phase cross-shard reservation.

The monolithic :class:`~repro.control.service.ReservationService` funnels
every admission through one :class:`~repro.core.ledger.PortLedger` — the
scalability wall named in the ROADMAP.  The paper's model is inherently
federated (a request touches exactly one ingress and one egress access
point, and Eq. 1 constrains only per-port capacity), so admission state
partitions cleanly across per-access-point brokers, the architecture Chen
& Primet's flexible-reservation framework argues for.  This package is
that serving layer:

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
  submit / cancel / abort / degrade with journaling, crash
  :meth:`~repro.gateway.gateway.Gateway.replay`, and ``gateway_*``
  telemetry on every decision.

A single-shard, batch-of-one gateway is decision-for-decision equivalent
to :class:`~repro.control.service.ReservationService` on the same
workload (the property tests assert this); sharding and batching change
*where* the work happens, never *what* is decided.
"""

from .batch import AdmissionOrdering, Batcher
from .broker import BrokerUnavailable, Hold, ShardBroker, hold_expired
from .edge import EdgeLimit, EdgeLimiter
from .gateway import Gateway, GatewayStats, Ticket
from .invariants import InvariantReport, check_gateway
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
from .twophase import TwoPhaseCoordinator, TwoPhaseOutcome

__all__ = [
    "AdmissionOrdering",
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
    "Partition",
    "ShardBroker",
    "ShardMap",
    "ShardUnreachable",
    "Ticket",
    "TwoPhaseCoordinator",
    "TwoPhaseOutcome",
    "check_gateway",
    "hold_expired",
]
