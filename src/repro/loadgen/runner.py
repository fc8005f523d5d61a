"""The client fleet: concurrent seeded clients driving one service.

Two pacing modes:

- ``closed`` — every client loops back-to-back: submit a batch, await
  the decisions, submit the next.  Throughput is whatever the service
  sustains; this is the mode the ≥100k-submission CI smoke uses.
- ``paced`` — clients sleep until each submission's planned arrival
  instant (scaled by ``timescale``), approximating an open system; a
  client that falls behind stops sleeping (bounded backlog, not an
  unbounded queue), and no sleep outlasts the run's wall deadline.

Latency accounting: each submission's recorded latency is the wall
round-trip of the HTTP request that carried it (batch submissions share
their POST's round trip — that *is* the admission latency a batched
client observes).  Timing goes through an injectable
:class:`~repro.obs.perfclock.PerfClock`; nothing here reads the host
clock directly (GL001).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import ConfigurationError, ReproError
from ..obs.perfclock import PerfClock, WallClock
from .client import ServiceClient
from .plan import SubmissionPlan
from .report import LoadReport

__all__ = ["LoadgenConfig", "run_load"]


@dataclass
class LoadgenConfig:
    """One load run, fully specified (replayable given the same service)."""

    host: str
    port: int
    clients: int = 8
    #: Submissions per POST; 1 = the single-submit endpoint.
    batch: int = 16
    #: Stop after this many submissions fleet-wide (0 = duration-bound only).
    target_submissions: int = 1_000
    #: Stop after this many wall seconds (0 = target-bound only).
    duration_s: float = 0.0
    seed: int = 0
    mode: str = "closed"
    shape: str = "poisson"
    mean_interarrival: float = 1.0
    #: Plan positions pre-drawn; the fleet cycles if it outruns the plan.
    plan_size: int = 0
    #: ``paced`` mode: planned seconds per wall second.
    timescale: float = 1.0
    #: Issue a status GET for every Nth decided reservation (0 = off).
    status_every: int = 0
    #: Cancel every Nth accepted reservation (0 = off).
    cancel_every: int = 0
    #: API keys handed round-robin to clients (empty = anonymous).
    api_keys: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise ConfigurationError(f"need a positive client count, got {self.clients}")
        if self.batch <= 0:
            raise ConfigurationError(f"need a positive batch size, got {self.batch}")
        if self.mode not in ("closed", "paced"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.target_submissions <= 0 and self.duration_s <= 0:
            raise ConfigurationError("need a submission target or a duration bound")
        if self.timescale <= 0:
            raise ConfigurationError(f"timescale must be positive, got {self.timescale}")


class _Budget:
    """Fleet-wide stop condition: submission target and/or wall deadline."""

    def __init__(self, config: LoadgenConfig, perf: PerfClock) -> None:
        self._remaining = (
            config.target_submissions if config.target_submissions > 0 else None
        )
        self._perf = perf
        self._deadline = (
            perf.now() + config.duration_s if config.duration_s > 0 else None
        )

    def left(self) -> float:
        """Seconds before the wall deadline (``inf`` when only the target
        bounds the run)."""
        if self._deadline is None:
            return math.inf
        return self._deadline - self._perf.now()

    def take(self, want: int) -> int:
        """Claim up to ``want`` submissions; 0 means the run is over."""
        if self.left() <= 0:
            return 0
        if self._remaining is None:
            return want
        granted = min(want, self._remaining)
        self._remaining -= granted
        return granted


async def _run_client(
    index: int,
    config: LoadgenConfig,
    plan: SubmissionPlan,
    budget: _Budget,
    perf: PerfClock,
) -> LoadReport:
    report = LoadReport(seed=config.seed, clients=config.clients, mode=config.mode)
    key = (
        config.api_keys[index % len(config.api_keys)] if config.api_keys else None
    )
    client = ServiceClient(config.host, config.port, api_key=key)
    await client.connect()
    position = index  # stride-addressed plan walk (see SubmissionPlan)
    pace_origin = perf.now()
    try:
        while True:
            granted = budget.take(config.batch)
            if granted == 0:
                break
            bodies = [plan.body(position + k * config.clients) for k in range(granted)]
            position += granted * config.clients
            if config.mode == "paced":
                # Sleep until the first body's planned arrival, or the
                # deadline if that comes first; a late client just
                # proceeds (no queue of missed arrivals).
                due = pace_origin + bodies[0]["at"] / config.timescale
                delay = min(due - perf.now(), budget.left())
                if delay > 0:
                    await asyncio.sleep(delay)
                if budget.left() <= 0:
                    break
            await _submit(client, config, bodies, report, perf)
            await _auxiliary_reads(client, config, report, perf)
    finally:
        await client.close()
    return report


async def _submit(
    client: ServiceClient,
    config: LoadgenConfig,
    bodies: list[dict[str, Any]],
    report: LoadReport,
    perf: PerfClock,
) -> None:
    single = config.batch == 1
    endpoint = "/v1/reservations" if single else "/v1/reservations/batch"
    payload: Any = bodies[0] if single else {"submissions": bodies}
    start = perf.now()
    try:
        response = await client.request("POST", endpoint, payload=payload)
    except (ReproError, OSError, asyncio.IncompleteReadError):
        report.transport_errors += 1
        return
    elapsed = max(0.0, perf.now() - start)
    report.endpoint_requests[endpoint] += 1
    if response.status == 429:
        report.quota_refused += len(bodies)
        retry = response.retry_after
        if retry is not None and retry > 0:
            await asyncio.sleep(min(retry, 0.05))
        return
    if response.status >= 400:
        report.http_errors += 1
        return
    decisions = (
        [response.json()] if single else response.json().get("decisions", [])
    )
    for decision in decisions:
        outcome = decision.get("outcome")
        if outcome == "invalid":
            # Refused at the service edge (stale window, bad fields) —
            # never reached the gateway, so not an admission sample.
            report.invalid += 1
            continue
        report.submits += 1
        report.submit_latencies.append(elapsed)
        if outcome == "accepted":
            report.accepted += 1
            rid = decision.get("rid")
            if rid is not None:
                report.last_accepted_rid = rid
        elif outcome == "rejected":
            report.rejected += 1
            reason = decision.get("reason")
            if reason:
                report.reject_reasons[str(reason)] += 1
        elif outcome == "edge-refused":
            report.edge_refused += 1


async def _auxiliary_reads(
    client: ServiceClient,
    config: LoadgenConfig,
    report: LoadReport,
    perf: PerfClock,
) -> None:
    """Optional status/cancel traffic so reads share the measured load."""
    rid = report.last_accepted_rid
    if rid is None:
        return
    if config.status_every > 0 and report.submits % config.status_every == 0:
        try:
            await client.request("GET", f"/v1/reservations/{rid}")
            report.endpoint_requests["/v1/reservations/{rid}"] += 1
        except (ReproError, OSError, asyncio.IncompleteReadError):
            report.transport_errors += 1
    if config.cancel_every > 0 and report.accepted % config.cancel_every == 0:
        try:
            await client.request("DELETE", f"/v1/reservations/{rid}")
            report.endpoint_requests["DELETE /v1/reservations/{rid}"] += 1
        except (ReproError, OSError, asyncio.IncompleteReadError):
            report.transport_errors += 1


async def run_load(
    config: LoadgenConfig,
    *,
    platform: Any,
    plan: SubmissionPlan | None = None,
    perf: PerfClock | None = None,
) -> LoadReport:
    """Drive the fleet; returns the merged fleet-wide report.

    ``platform`` shapes the default plan (port indices and capacities
    must match the service's); pass an explicit ``plan`` to override.
    """
    perf = perf if perf is not None else WallClock()
    if plan is None:
        size = config.plan_size
        if size <= 0:
            size = max(config.target_submissions, config.clients * config.batch * 4, 1024)
        plan = SubmissionPlan(
            platform,
            size,
            seed=config.seed,
            shape=config.shape,
            mean_interarrival=config.mean_interarrival,
        )
    budget = _Budget(config, perf)
    started = perf.now()
    reports = await asyncio.gather(
        *(
            _run_client(i, config, plan, budget, perf)
            for i in range(config.clients)
        )
    )
    merged = LoadReport(seed=config.seed, clients=config.clients, mode=config.mode)
    for report in reports:
        merged.merge(report)
    merged.wall_seconds = max(0.0, perf.now() - started)
    return merged
