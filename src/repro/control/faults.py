"""Online failure injection for the reservation control plane.

The offline abort model (:mod:`repro.grid.failures`) post-processes a
finished schedule; this module injects failures **while the service
runs**, as events of the discrete-event engine (:mod:`repro.sim`):

- :class:`AbortFault` — a transfer dies mid-flight at a given instant;
- :class:`PortFault` — a port loses ``amount`` MB/s over ``[start, end)``
  (a full outage when the amount reaches the port capacity).

:class:`FaultInjector` schedules these against a live admission plane —
a :class:`~repro.control.service.ReservationService` or a
:class:`~repro.gateway.Gateway`, whose tickets *are* reservations — and
drives recovery:
reservations displaced by a port fault have their residual volume
(``volume − carried``) resubmitted with exponential backoff and jitter
(:class:`~repro.schedulers.retry.BackoffSchedule`) until the rebooking is
admitted, the deadline becomes unreachable, or the attempt budget runs
out.

:func:`run_fault_drill` wires a whole experiment — workload arrivals,
random aborts, planned port faults — through one simulator, and is what
the fault benchmark, the example scenario, and the end-to-end tests run.
:func:`run_gateway_fault_drill` is its sharded sibling: the same workload
and faults, driven by the same injector, served by a
:class:`~repro.gateway.Gateway`, plus
:class:`BrokerCrash` events that kill shard brokers mid-protocol (their
volatile holds are wiped and in-flight two-phase transactions abort).

On top of the drill sits the **chaos matrix**
(:func:`run_chaos_matrix`): seeds × scenarios — clean, lossy, partition,
duplicate-storm, crash-mid-2PC (:data:`CHAOS_SCENARIOS`) — each cell a
full drill with a :class:`~repro.gateway.rpc.ChaosPolicy` attached,
quiesced past the hold TTL, and audited by
:func:`~repro.gateway.invariants.check_gateway` (no overcommit, presumed
abort, ledger reconciliation, journal replay convergence).  CI runs the
smoke tier of the matrix and fails on any violation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from ..core.booking import deadline_tolerance
from ..core.errors import ConfigurationError
from ..core.platform import Platform
from ..core.request import Request
from ..schedulers.policies import BandwidthPolicy
from ..schedulers.retry import BackoffSchedule
from ..sim.engine import Simulator
from .journal import Journal
from .service import Reservation, ReservationService

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from ..gateway import Gateway
    from ..gateway.edge import EdgeLimit
    from ..gateway.rpc import ChaosPolicy
    from ..obs.recorder import FlightRecorder
    from ..obs.slo import SloRule, SloWatchdog
    from ..obs.telemetry import Telemetry

__all__ = [
    "AbortFault",
    "BrokerCrash",
    "CHAOS_SCENARIOS",
    "ChaosMatrixReport",
    "PortFault",
    "FaultInjector",
    "FaultDrillReport",
    "GatewayDrillReport",
    "chaos_scenario",
    "run_chaos_matrix",
    "run_fault_drill",
    "run_gateway_fault_drill",
]


@dataclass(frozen=True, slots=True)
class AbortFault:
    """Kill reservation ``rid`` at time ``at`` (a mid-flight failure)."""

    rid: int
    at: float


@dataclass(frozen=True, slots=True)
class PortFault:
    """Remove ``amount`` MB/s from a port over ``[start, end)``."""

    side: str  # "ingress" | "egress"
    port: int
    amount: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.side not in ("ingress", "egress"):
            raise ConfigurationError(f"side must be 'ingress' or 'egress', got {self.side!r}")
        if not (self.end > self.start):
            raise ConfigurationError(f"empty fault window [{self.start}, {self.end})")
        if self.amount <= 0:
            raise ConfigurationError(f"fault amount must be positive, got {self.amount}")

    @classmethod
    def outage(cls, side: str, port: int, capacity: float, start: float, end: float) -> PortFault:
        """A full outage: the whole ``capacity`` disappears over the window."""
        return cls(side=side, port=port, amount=capacity, start=start, end=end)


@dataclass(frozen=True, slots=True)
class BrokerCrash:
    """Kill shard broker ``shard`` at ``at``; restart it at ``restart_at``.

    A crash wipes the broker's volatile two-phase holds (the reserved
    capacity returns instantly) and makes every prepare/commit against it
    fail until restart — requests pending in the gateway batch at the
    crash instant exercise the mid-prepare abort path.  ``restart_at``
    ``None`` leaves the broker down for the rest of the drill.
    """

    shard: int
    at: float
    restart_at: float | None = None

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if self.restart_at is not None and not (self.restart_at > self.at):
            raise ConfigurationError(
                f"restart_at must follow the crash: {self.restart_at} <= {self.at}"
            )


class FaultInjector:
    """Schedules faults as simulation events and drives rebooking.

    Parameters
    ----------
    sim:
        The discrete-event engine the traffic runs on.
    service:
        The admission plane under test (service or gateway: the injector
        only calls the ``abort`` / ``degrade`` / ``submit`` verbs they share).
    rebook:
        Backoff schedule for resubmitting displaced residual volumes;
        ``None`` disables automatic rebooking.
    seed:
        Seed of the injector's private RNG (backoff jitter, random abort
        sampling).  The RNG never touches the service itself, so journal
        replay stays deterministic regardless of jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        service: ReservationService | Gateway,
        *,
        rebook: BackoffSchedule | None = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.service = service
        self.rebook = rebook
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    def schedule_abort(self, fault: AbortFault) -> None:
        """Arrange for a reservation to abort at ``fault.at`` — or now, when
        that instant passed before its (batched) decision was published."""
        self.sim.at(max(fault.at, self.sim.now), self._on_abort, payload=fault)

    def schedule_fault(self, fault: PortFault) -> None:
        """Arrange for a port degradation to strike at ``fault.start``."""
        self.sim.at(fault.start, self._on_port_fault, payload=fault)

    def maybe_abort(
        self, reservation: Reservation, abort_rate: float, now: float | None = None
    ) -> AbortFault | None:
        """Sample a mid-flight abort for a freshly confirmed reservation.

        With probability ``abort_rate`` the transfer dies at a uniform
        point of the part of its ``[σ, τ)`` run still ahead of the
        decision instant (mirroring the offline model of
        :mod:`repro.grid.failures`).  ``now`` names that instant when it
        is not the simulator's clock: a gateway batch flushed by a clock
        advance decided at the previous one.  A rejection, or a zero
        rate, draws nothing from the RNG.
        """
        alloc = reservation.allocation
        if alloc is None or abort_rate <= 0.0 or self.rng.random() >= abort_rate:
            return None
        lo = max(self.sim.now if now is None else now, alloc.sigma)
        if lo >= alloc.tau:
            return None
        fault = AbortFault(rid=reservation.rid, at=self.rng.uniform(lo, alloc.tau))
        self.schedule_abort(fault)
        return fault

    # ------------------------------------------------------------------
    def _on_abort(self, event) -> None:
        fault: AbortFault = event.payload
        self.service.abort(fault.rid, now=self.sim.now)

    def _on_port_fault(self, event) -> None:
        fault: PortFault = event.payload
        displaced = self.service.degrade(
            side=fault.side,
            port=fault.port,
            amount=fault.amount,
            start=fault.start,
            end=fault.end,
            now=self.sim.now,
        )
        if self.rebook is None:
            return
        for reservation in displaced:
            self._schedule_rebook(reservation, attempt=1)

    def _schedule_rebook(self, displaced: Reservation, attempt: int) -> None:
        """Queue rebooking attempt ``attempt`` for a displaced residual."""
        if attempt > self.rebook.max_attempts:
            return
        residual = displaced.residual
        if residual <= 0:
            return
        request = displaced.request
        at = self.sim.now + self.rebook.delay(attempt, self.rng)
        # Give up when not even MaxRate can deliver the residual by the
        # deadline from the attempt time.
        if at + residual / request.max_rate > request.t_end + deadline_tolerance(request.t_end):
            return
        self.sim.at(at, self._on_rebook, payload=(displaced, attempt))

    def _on_rebook(self, event) -> None:
        displaced, attempt = event.payload
        request = displaced.request
        rebooked = self.service.submit(
            ingress=request.ingress,
            egress=request.egress,
            volume=displaced.residual,
            deadline=request.t_end,
            now=self.sim.now,
            max_rate=request.max_rate,
            origin=displaced.rid,
        )
        if not rebooked.confirmed:
            self._schedule_rebook(displaced, attempt + 1)


@dataclass
class FaultDrillReport:
    """Everything a fault-injection run produces."""

    service: ReservationService
    injector: FaultInjector
    aborts: list[AbortFault] = field(default_factory=list)
    faults: list[PortFault] = field(default_factory=list)

    @property
    def journal(self) -> Journal | None:
        """The service's operation journal (when one was attached)."""
        return self.service.journal


def run_fault_drill(
    platform: Platform,
    requests: Iterable[Request],
    *,
    policy: BandwidthPolicy | None = None,
    abort_rate: float = 0.0,
    faults: Sequence[PortFault] = (),
    rebook: BackoffSchedule | None = None,
    backlog_limit: int = 0,
    journal: Journal | None = None,
    seed: int = 0,
    until: float | None = None,
) -> FaultDrillReport:
    """Drive a workload plus failures through one online simulation.

    Each request is submitted at its ``t_start``; confirmed reservations
    abort mid-flight with probability ``abort_rate``; the planned port
    ``faults`` strike at their start times, displacing reservations whose
    residual volume is then rebooked per ``rebook``.  Returns the finished
    service (inspect ``service.stats``, ``service.snapshot()``, or verify
    Eq. 1 via ``service.surviving_schedule()``).
    """
    if not (0.0 <= abort_rate <= 1.0):
        raise ConfigurationError(f"abort_rate must be in [0, 1], got {abort_rate}")
    service = ReservationService(
        platform, policy=policy, backlog_limit=backlog_limit, journal=journal
    )
    sim = Simulator()
    injector = FaultInjector(sim, service, rebook=rebook, seed=seed)
    report = FaultDrillReport(service=service, injector=injector, faults=list(faults))

    def on_arrival(event) -> None:
        request: Request = event.payload
        reservation = service.submit(
            ingress=request.ingress,
            egress=request.egress,
            volume=request.volume,
            deadline=request.t_end,
            now=sim.now,
            max_rate=request.max_rate,
        )
        fault = injector.maybe_abort(reservation, abort_rate)
        if fault is not None:
            report.aborts.append(fault)

    for request in sorted(requests, key=lambda r: (r.t_start, r.rid)):
        sim.at(request.t_start, on_arrival, payload=request)
    for fault in faults:
        injector.schedule_fault(fault)
    sim.run(until=until if until is not None else float("inf"))
    return report


@dataclass
class GatewayDrillReport:
    """Everything a sharded (gateway) fault-injection run produces."""

    gateway: Any  # repro.gateway.Gateway (annotated loosely: cycle guard)
    aborts: list[AbortFault] = field(default_factory=list)
    faults: list[PortFault] = field(default_factory=list)
    crashes: list[BrokerCrash] = field(default_factory=list)

    @property
    def journal(self) -> Journal | None:
        """The gateway's operation journal (when one was attached)."""
        return self.gateway.journal


def run_gateway_fault_drill(
    platform: Platform,
    requests: Iterable[Request],
    *,
    num_shards: int = 1,
    batch_size: int = 1,
    ordering: str = "fifo",
    policy: BandwidthPolicy | None = None,
    abort_rate: float = 0.0,
    faults: Sequence[PortFault] = (),
    crashes: Sequence[BrokerCrash] = (),
    edge: EdgeLimit | None = None,
    hold_ttl: float = 300.0,
    backoff: BackoffSchedule | None = None,
    chaos: ChaosPolicy | None = None,
    rpc_deadline: float | None = None,
    backlog_limit: int = 0,
    malleable: bool = False,
    restart_sweep: float | None = None,
    journal: Journal | None = None,
    telemetry: Telemetry | None = None,
    recorder: FlightRecorder | None = None,
    slo: SloWatchdog | None = None,
    seed: int = 0,
    until: float | None = None,
) -> GatewayDrillReport:
    """:func:`run_fault_drill` against a sharded, batched gateway.

    The same experiment shape — arrivals at ``t_start``, sampled
    mid-flight aborts, planned port faults — served by a
    :class:`~repro.gateway.Gateway`, with one extra hazard class:
    :class:`BrokerCrash` events.  At each crash instant arrivals already
    scheduled at that time have been submitted (events at equal times run
    in priority order; crashes run last), so when their batch decides it
    faces the dead broker: prepares fail, placed holds are aborted, and
    the requests reject ``broker-unavailable`` after burning the two-phase
    retry budget.  The trailing open batch is drained at the end of the
    run, so every submission is decided in the returned report.

    ``chaos`` / ``rpc_deadline`` / ``backlog_limit`` wire the message-level
    fault plane straight through to the gateway (see
    :mod:`repro.gateway.rpc`), and ``malleable`` turns on its
    stepwise-profile plane (shaped fallback admission, reshape before
    displacement on degrade).  ``restart_sweep`` schedules a periodic
    janitor that restarts every crashed broker (journaled ``restart``
    ops) — the recovery half of the crash-mid-2PC scenario, where crashes
    are sampled *inside* the protocol by the chaos policy rather than
    planned as :class:`BrokerCrash` events.

    ``telemetry`` / ``recorder`` / ``slo`` attach the observability plane:
    an enabled :class:`~repro.obs.telemetry.Telemetry` (or any
    :class:`~repro.obs.recorder.FlightRecorder`) turns on causal tracing
    for every admission, and an :class:`~repro.obs.slo.SloWatchdog` is fed
    each decision and each batch's health snapshot as the drill runs.

    Displacement rebooking is a service-drill feature and is not offered
    here; displaced residuals stay unbooked (though with a
    ``backlog_limit`` broker-down rejections re-admit themselves).
    Aborts sampled for a batched decision are scheduled from the decision
    (flush) time, mirroring the service drill's "from confirmation"
    semantics.
    """
    from ..gateway import Gateway  # local import: control <-> gateway cycle

    if not (0.0 <= abort_rate <= 1.0):
        raise ConfigurationError(f"abort_rate must be in [0, 1], got {abort_rate}")
    if restart_sweep is not None and restart_sweep <= 0:
        raise ConfigurationError(f"restart_sweep must be positive, got {restart_sweep}")
    sim = Simulator()
    gateway = Gateway(
        platform,
        num_shards=num_shards,
        batch_size=batch_size,
        ordering=ordering,
        policy=policy,
        edge=edge,
        hold_ttl=hold_ttl,
        backoff=backoff,
        chaos=chaos,
        rpc_deadline=rpc_deadline,
        backlog_limit=backlog_limit,
        malleable=malleable,
        journal=journal,
        telemetry=telemetry,
        recorder=recorder,
        slo=slo,
    )
    injector = FaultInjector(sim, gateway, seed=seed)
    report = GatewayDrillReport(gateway=gateway, faults=list(faults), crashes=list(crashes))

    def on_decision(reservation: Reservation, now: float) -> None:
        fault = injector.maybe_abort(reservation, abort_rate, now)
        if fault is not None:
            report.aborts.append(fault)

    gateway.on_decision = on_decision

    def on_arrival(event) -> None:
        request: Request = event.payload
        gateway.submit(
            ingress=request.ingress,
            egress=request.egress,
            volume=request.volume,
            deadline=request.t_end,
            now=sim.now,
            max_rate=request.max_rate,
        )

    def on_crash(event) -> None:
        crash: BrokerCrash = event.payload
        gateway.crash_broker(crash.shard, now=sim.now)

    def on_restart(event) -> None:
        crash: BrokerCrash = event.payload
        gateway.restart_broker(crash.shard, now=sim.now)

    for request in sorted(requests, key=lambda r: (r.t_start, r.rid)):
        sim.at(request.t_start, on_arrival, payload=request)
    for fault in faults:
        injector.schedule_fault(fault)
    for crash in crashes:
        # priority 1: a crash at time t strikes after the arrivals at t
        # have been submitted but (batch permitting) before they decide.
        sim.at(crash.at, on_crash, payload=crash, priority=1)
        if crash.restart_at is not None:
            sim.at(crash.restart_at, on_restart, payload=crash)
    if restart_sweep is not None and requests:
        # A periodic janitor for chaos-sampled crashes (crash_after_prepare
        # and friends): restart every dead broker so sampled wipes recover
        # instead of blacking out a shard for the rest of the run.
        def on_sweep(event) -> None:
            for broker in gateway.brokers:
                if broker.crashed:
                    gateway.restart_broker(broker.shard_id, now=sim.now)

        last = max(r.t_start for r in requests) + restart_sweep
        tick = restart_sweep
        while tick <= last:
            sim.at(tick, on_sweep, priority=2)
            tick += restart_sweep
    horizon = until if until is not None else float("inf")
    sim.run(until=horizon)
    gateway.drain(sim.now)
    # The trailing drain can sample fresh mid-flight aborts; run them too.
    sim.run(until=horizon)
    return report


# ----------------------------------------------------------------------
# Chaos matrix: seeds x scenarios, every cell invariant-audited
# ----------------------------------------------------------------------

#: The canonical chaos scenarios the matrix sweeps (see
#: :func:`chaos_scenario` for what each one injects).
CHAOS_SCENARIOS: tuple[str, ...] = (
    "clean",
    "lossy",
    "partition",
    "duplicate-storm",
    "crash-mid-2pc",
)


def chaos_scenario(
    name: str,
    *,
    seed: int = 0,
    num_shards: int = 4,
    horizon: float = 600.0,
) -> tuple[ChaosPolicy | None, tuple[BrokerCrash, ...], float | None]:
    """Build the ``(chaos, crashes, restart_sweep)`` triple for a cell.

    - ``clean`` — no chaos at all; the control row every other scenario's
      decision stream is diffed against.
    - ``lossy`` — uniform drop / duplicate / delay on every
      coordinator<->broker edge (:meth:`~repro.gateway.rpc.ChaosPolicy.lossy`).
    - ``partition`` — one shard unreachable over the middle of the run,
      healing at ``0.6 * horizon``; rejected requests park in the backlog
      and re-admit after the heal.
    - ``duplicate-storm`` — most messages delivered twice; pure
      idempotency pressure, zero loss.
    - ``crash-mid-2pc`` — brokers sampled to die right after
      acknowledging a prepare or commit, plus one planned
      :class:`BrokerCrash`, with a periodic restart sweep as the
      recovery half.
    """
    from ..gateway.rpc import ChaosPolicy

    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if name == "clean":
        return None, (), None
    if name == "lossy":
        return ChaosPolicy.lossy(seed=seed), (), None
    if name == "partition":
        return (
            ChaosPolicy.with_partition(
                1 % num_shards, 0.25 * horizon, 0.6 * horizon, seed=seed
            ),
            (),
            None,
        )
    if name == "duplicate-storm":
        return ChaosPolicy.duplicate_storm(seed=seed), (), None
    if name == "crash-mid-2pc":
        crashes = (BrokerCrash(shard=0, at=0.3 * horizon, restart_at=0.45 * horizon),)
        return ChaosPolicy.crash_mid_2pc(seed=seed), crashes, horizon / 6.0
    raise ConfigurationError(
        f"unknown chaos scenario {name!r}; expected one of {CHAOS_SCENARIOS}"
    )


@dataclass
class ChaosMatrixReport:
    """Per-cell outcomes of a :func:`run_chaos_matrix` sweep."""

    #: One dict per (seed, scenario) cell: decisions, chaos counters, the
    #: full invariant report and the cell's SLO verdict.
    cells: list[dict[str, Any]] = field(default_factory=list)
    #: Causal-trace artifact covering every cell (``tracing=True`` only).
    telemetry: Any | None = None  # repro.obs.RunTelemetry (cycle guard)
    #: Flight-recorder dumps of failing cells, saved under ``flight_dir``.
    flight_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every cell pass every invariant?"""
        return all(cell["invariants"]["ok"] for cell in self.cells)

    @property
    def slo_ok(self) -> bool:
        """Did every cell also hold its service-level objectives?"""
        return all(cell["slo"]["ok"] for cell in self.cells)

    @property
    def violations(self) -> list[str]:
        """Every violation across the matrix, prefixed with its cell."""
        out: list[str] = []
        for cell in self.cells:
            for violation in cell["invariants"]["violations"]:
                out.append(f"[seed={cell['seed']} {cell['scenario']}] {violation}")
        return out

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (the CI artifact)."""
        return {
            "ok": self.ok,
            "slo_ok": self.slo_ok,
            "cells": [dict(cell) for cell in self.cells],
        }


def run_chaos_matrix(
    platform: Platform,
    make_requests: Any,
    *,
    seeds: Sequence[int],
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    num_shards: int = 4,
    batch_size: int = 4,
    ordering: str = "fifo",
    policy: BandwidthPolicy | None = None,
    abort_rate: float = 0.0,
    hold_ttl: float = 120.0,
    backlog_limit: int = 8,
    rpc_deadline: float | None = 60.0,
    malleable: bool = False,
    make_faults: Any = None,
    horizon: float = 600.0,
    tracing: bool = False,
    slo_rules: Sequence[SloRule] | None = None,
    flight_dir: str | Path | None = None,
) -> ChaosMatrixReport:
    """Sweep seeds x scenarios; quiesce and invariant-audit every cell.

    ``make_requests`` is a callable ``(seed) -> Iterable[Request]`` so
    every seed row gets its own workload.  ``make_faults`` (optional,
    same shape: ``(seed) -> Sequence[PortFault]``) adds planned port
    degradations to every cell, and ``malleable=True`` turns on the
    gateway's stepwise-profile plane — shaped fallback admission and
    reshape-before-displace recovery — so the matrix audits the reshape
    verb under every chaos scenario.  Each cell runs a full
    :func:`run_gateway_fault_drill` with the scenario's chaos policy and
    a journal attached, then drains repeatedly until the gateway has
    quiesced — no live hold on any broker and the clock past every
    request deadline (each drain pass advances the clock one hold TTL, so
    parked backlog entries get their re-admission attempts and any holds
    they strand expire) — and finally runs
    :func:`~repro.gateway.invariants.check_gateway` with
    ``expect_quiesced=True``.  The returned report carries every cell;
    ``report.ok`` is the CI gate.

    Every cell also runs an :class:`~repro.obs.slo.SloWatchdog` over the
    live gateway (``slo_rules`` or :func:`~repro.obs.slo.default_slo_rules`
    scaled to the cell's TTL / deadline / backlog) and reports its verdict
    under ``cell["slo"]`` — ``report.slo_ok`` aggregates them.  With
    ``tracing=True`` each cell gets its own enabled telemetry handle and
    flight recorder; the captures land in ``report.telemetry`` (a
    :class:`~repro.obs.artifact.RunTelemetry` named ``chaos-matrix``) so
    ``grid-obs explain`` can reconstruct any request in any cell.  When a
    cell fails its audit and ``flight_dir`` is given, the attached
    flight-recorder dump is saved there as
    ``FLIGHT_seed<seed>_<scenario>.json`` (paths in ``report.flight_paths``).
    """
    from ..gateway.invariants import check_gateway
    from ..obs.artifact import RunTelemetry
    from ..obs.recorder import FlightRecorder
    from ..obs.slo import SloWatchdog, default_slo_rules
    from ..obs.telemetry import Telemetry

    rules = (
        list(slo_rules)
        if slo_rules is not None
        else default_slo_rules(
            hold_ttl=hold_ttl, rpc_deadline=rpc_deadline, backlog_limit=backlog_limit
        )
    )
    report = ChaosMatrixReport()
    if tracing:
        report.telemetry = RunTelemetry(
            "chaos-matrix", meta={"scenarios": list(scenarios), "seeds": list(seeds)}
        )
    for seed in seeds:
        requests = list(make_requests(seed))
        faults = tuple(make_faults(seed)) if make_faults is not None else ()
        last_deadline = max((r.t_end for r in requests), default=0.0)
        for scenario in scenarios:
            chaos, crashes, restart_sweep = chaos_scenario(
                scenario, seed=seed, num_shards=num_shards, horizon=horizon
            )
            journal = Journal()
            telemetry = Telemetry() if tracing else None
            recorder = FlightRecorder() if tracing else None
            watchdog = SloWatchdog(rules)
            drill = run_gateway_fault_drill(
                platform,
                requests,
                num_shards=num_shards,
                batch_size=batch_size,
                ordering=ordering,
                policy=policy,
                abort_rate=abort_rate,
                faults=faults,
                crashes=crashes,
                hold_ttl=hold_ttl,
                chaos=chaos,
                rpc_deadline=rpc_deadline,
                backlog_limit=backlog_limit,
                malleable=malleable,
                restart_sweep=restart_sweep,
                journal=journal,
                telemetry=telemetry,
                recorder=recorder,
                slo=watchdog,
                seed=seed,
            )
            gateway = drill.gateway
            # Quiesce: backlog re-admissions triggered by a drain can
            # strand fresh holds, so keep sweeping full TTLs until the
            # brokers are empty and the clock is past every deadline
            # (deadline pruning empties the backlog, so this terminates).
            for _ in range(12):
                settled = not any(broker.holds() for broker in gateway.brokers)
                past = gateway.now > last_deadline + deadline_tolerance(last_deadline)
                if settled and past:
                    break
                gateway.drain(gateway.now + hold_ttl + 1.0)
            invariants = check_gateway(
                gateway, journal=journal, now=gateway.now, expect_quiesced=True
            )
            if report.telemetry is not None and telemetry is not None:
                report.telemetry.capture(f"seed={seed}/{scenario}", telemetry)
            if invariants.flight is not None and flight_dir is not None:
                dump_path = Path(flight_dir) / f"FLIGHT_seed{seed}_{scenario}.json"
                dump_path.parent.mkdir(parents=True, exist_ok=True)
                dump_path.write_text(
                    json.dumps(invariants.flight, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                report.flight_paths.append(str(dump_path))
            stats = gateway.stats
            report.cells.append(
                {
                    "seed": seed,
                    "scenario": scenario,
                    "submitted": stats.submits,
                    "accepted": stats.accepted,
                    "rejected": stats.rejected,
                    "shard_unreachable": stats.shard_unreachable,
                    "backlogged": stats.backlogged,
                    "readmitted": stats.readmitted,
                    "compensations": stats.compensations,
                    "displaced": stats.displaced,
                    "reshaped": stats.reshaped,
                    "stranded_holds": stats.stranded_holds,
                    "chaos_drops": stats.chaos_drops,
                    "chaos_duplicates": stats.chaos_duplicates,
                    "chaos_partitioned": stats.chaos_partitioned,
                    "chaos_crashes": stats.chaos_crashes,
                    "invariants": invariants.to_dict(),
                    "slo": watchdog.report(),
                }
            )
    return report
