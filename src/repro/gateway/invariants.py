"""Post-drill invariant checking for the admission gateway.

The paper's guarantee — *accepted means scheduled, no overcommit* — must
survive everything the chaos plane throws at the control plane: lost and
duplicated deliveries, partitions, brokers crashing between prepare and
commit.  :func:`check_gateway` audits a finished (or mid-flight) gateway
against the four invariants the design rests on:

1. **No overcommit** — no port's committed usage exceeds its capacity
   (Eq. 1 per shard slice), beyond that port's own numerical slack.
2. **Presumed abort** — every prepared-never-committed hold is either
   still within its TTL, or gone (released / timeout-expired / wiped);
   a hold past its tolerance-aware expiry is a zombie, and at a
   quiesced end (``expect_quiesced=True``) no hold may be live at all.
3. **Ledger reconciliation** — every shard timeline carries *exactly*
   the bandwidth the decided reservations (minus their released tails)
   plus the live holds account for: no committed booking exists that the
   journal-derived reservation state does not explain, and nothing the
   state promises is missing from a ledger.
4. **Replay convergence** — when the gateway's journal is supplied,
   :meth:`~repro.gateway.gateway.Gateway.replay` rebuilds a
   ``snapshot()``-identical gateway, chaos, crash-mid-commit and all;
   and when that journal holds a ``checkpoint``,
   :meth:`~repro.gateway.gateway.Gateway.resume` (the last checkpoint
   restored, the entries after it replayed) lands on the same complete
   state (``dump_state()``) as the from-scratch replay.

The checker never asserts; it collects human-readable violation strings
into an :class:`InvariantReport` so a chaos-matrix cell can carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .journal import Journal
from ..core.errors import InternalInvariantError
from ..core.ledger import CAPACITY_SLACK
from ..units import bandwidth_eq
from .broker import hold_expired
from .gateway import Gateway

__all__ = ["InvariantReport", "check_gateway"]


@dataclass
class InvariantReport:
    """What :func:`check_gateway` found."""

    violations: list[str] = field(default_factory=list)
    #: How much was audited (shards, ports, reservations, live holds...).
    checks: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Did every invariant hold?"""
        return not self.violations

    def raise_if_failed(self) -> None:
        """Escalate violations into an :class:`InternalInvariantError`."""
        if self.violations:
            raise InternalInvariantError(
                "gateway invariants violated:\n- " + "\n- ".join(self.violations)
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (chaos-matrix cells / CI artifacts)."""
        return {"ok": self.ok, "violations": list(self.violations), "checks": dict(self.checks)}


def _all_ports(gateway: Gateway) -> list[tuple[str, int]]:
    platform = gateway.platform
    return [("ingress", i) for i in range(platform.num_ingress)] + [
        ("egress", e) for e in range(platform.num_egress)
    ]


def _expected_edges(gateway: Gateway) -> dict[tuple[str, int], list[tuple[float, int, float]]]:
    """Per-port ``(t, ±1, rate)`` edges the reservation state explains.

    A live reservation occupies its rate steps (one ``[σ, τ)`` rectangle
    when constant); one that ended early (cancel / abort / displacement)
    kept only the head before ``max(end, σ)`` — its tail was released
    back to the shards.  Live two-phase holds pin their window too
    (prepare books capacity immediately).
    """
    edges: dict[tuple[str, int], list[tuple[float, int, float]]] = {}

    def pin(side: str, port: int, t0: float, t1: float, rate: float) -> None:
        edges.setdefault((side, port), []).extend(((t0, 1, rate), (t1, -1, rate)))

    for reservation in gateway.reservations():
        alloc = reservation.allocation
        if alloc is None:
            continue
        stop = reservation.terminated_at
        end = math.inf if stop is None else max(stop, alloc.sigma)
        for s0, s1, rate in alloc.segments():
            if s0 < end:
                pin("ingress", alloc.ingress, s0, min(s1, end), rate)
                pin("egress", alloc.egress, s0, min(s1, end), rate)
    for broker in gateway.brokers:
        for hold in broker.holds():
            for s0, s1, rate in hold.segments:
                pin(hold.side, hold.port, s0, s1, rate)
    return edges


def _diverged(left: dict[str, Any], right: dict[str, Any]) -> list[str]:
    """The top-level keys on which two state dumps differ."""
    return sorted(key for key in set(left) | set(right) if left.get(key) != right.get(key))


def check_gateway(
    gateway: Gateway,
    *,
    journal: Journal | None = None,
    now: float | None = None,
    expect_quiesced: bool = False,
) -> InvariantReport:
    """Audit a gateway against the four admission invariants.

    Parameters
    ----------
    gateway:
        The gateway to audit (typically after a drill).
    journal:
        When given, invariant 4 replays it and compares snapshots (and,
        when it holds a checkpoint, restores that and compares states).
    now:
        The audit instant for TTL checks; defaults to the gateway clock.
    expect_quiesced:
        The drill claims to have fully settled: any live hold at all is
        then a violation (every transaction must have committed, aborted
        or TTL-expired by now).
    """
    at = gateway.now if now is None else now
    report = InvariantReport()
    violations = report.violations

    # 1 — no overcommit on any port, each at its own slack (the tolerance
    # displace_overflow resolves a degradation to).
    ports = _all_ports(gateway)
    for side, port in ports:
        broker = gateway.coordinator.broker_for(side, port)
        owned = broker.port(side, port)
        overshoot = owned.max_overcommit()
        tolerance = CAPACITY_SLACK * max(1.0, owned.capacity)
        if overshoot > tolerance:
            violations.append(
                f"shard {broker.shard_id}: {side} port {port} usage exceeds capacity by "
                f"{overshoot:.6g} MB/s (tolerance {tolerance:.3g})"
            )

    # 2 — presumed abort: no zombie holds, none at all when quiesced.
    live_holds = 0
    for broker in gateway.brokers:
        resolved = broker.resolutions()
        for hold in broker.holds():
            live_holds += 1
            if hold.hold_id in resolved:
                violations.append(
                    f"shard {broker.shard_id}: hold {hold.hold_id} is live "
                    f"but already resolved ({resolved[hold.hold_id]})"
                )
            if hold_expired(hold.expires, at):
                violations.append(
                    f"shard {broker.shard_id}: zombie hold {hold.hold_id} "
                    f"(rid {hold.rid}) past its TTL "
                    f"(expires {hold.expires:.6g} <= now {at:.6g})"
                )
            elif expect_quiesced:
                violations.append(
                    f"shard {broker.shard_id}: hold {hold.hold_id} "
                    f"(rid {hold.rid}) still live at a quiesced end"
                )

    # 3 — ledger reconciliation: timelines == reservations + live holds.
    # One sweep over each port's sorted edges, sampling between every two
    # distinct instants (and once past the last) against a running sum.
    expected = _expected_edges(gateway)
    for side, port in ports:
        edges = sorted(expected.get((side, port), ()))
        usage = gateway.coordinator.broker_for(side, port).port(side, port).usage
        samples: list[tuple[float, float]] = []
        want, live = 0.0, 0
        for k, (t, sign, rate) in enumerate(edges):
            live += sign
            # An idle port carries exactly nothing: float drift of the
            # running sum never outlives a busy period.
            want = want + sign * rate if live else 0.0
            if k + 1 == len(edges):
                samples.append((t + 1.0, want))
            elif edges[k + 1][0] > t:
                # Instants one ulp apart have no float strictly between.
                mid = t + (edges[k + 1][0] - t) / 2.0
                samples.append((mid if mid < edges[k + 1][0] else t, want))
        for t, want in samples or [(at + 1.0, 0.0)]:
            got = usage.usage_at(t)
            if not bandwidth_eq(want, got):
                violations.append(
                    f"{side} port {port} at t={t:.6g}: ledger carries "
                    f"{got:.6g} MB/s but reservations+holds account for "
                    f"{want:.6g} MB/s (off by {got - want:+.3g})"
                )
                break  # one sample per port is diagnosis enough

    # 4 — replay convergence (when the journal is available), and a
    # checkpoint restore converging on that replay.
    replayed = 0
    if journal is not None:
        replayed = 1
        diverged = _diverged(Gateway.replay(journal).snapshot(), gateway.snapshot())
        if diverged:
            violations.append("journal replay diverges on: " + ", ".join(diverged))
        if journal.has_checkpoint():
            replayed = 2
            restored = Gateway.resume(journal).dump_state()
            diverged = _diverged(restored, Gateway.replay(journal).dump_state())
            if diverged:
                violations.append(
                    "checkpoint restore diverges from the replay on: " + ", ".join(diverged)
                )

    report.checks = {
        "shards": len(gateway.brokers),
        "ports": len(ports),
        "reservations": len(gateway.reservations()),
        "live_holds": live_holds,
        "replayed": replayed,
    }
    return report
