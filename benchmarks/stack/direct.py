"""Benchmark-owned child for ``direct_core``: the admission core, no sockets.

Feeds the hotspot stream (read from ``--inputs``; this process never sees
the seed) straight into the in-process entry points, one phase each:

1. ``make_scheduler("bookahead").schedule(problem)`` — the paper-style
   offline call, over ``PortLedger``;
2. ``ReservationService.submit`` per request;
3. ``Gateway.submit_many`` in waves of 16 at ``num_shards=1``;
4. the same at ``num_shards=4`` (journal on disk in both);
5. ``Journal.load`` + ``Gateway.replay`` of phase 4 — this workload's
   ``restart_s``.

Every phase is verified after its clock stops (``verify_schedule``,
``max_overcommit``, ``check_gateway``, snapshot-equal replay, equal accept
counts at 1 and 4 shards).  Protocol: ``{"event": "ready"}`` once imports
and inputs are loaded, then one ``{"event": "result", ...}`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import tracer as stack_tracer
from child import TICK_S, Reference, gateway_counters, peak_rss_mb, say, snapshot_digest

from repro.control.journal import Journal
from repro.control.service import ReservationService
from repro.core.allocation import verify_schedule
from repro.core.capacity import CAPACITY_SLACK
from repro.core.errors import ReproError
from repro.core.platform import Platform
from repro.core.problem import ProblemInstance
from repro.core.request import Request, RequestSet
from repro.gateway import Gateway
from repro.gateway.invariants import check_gateway
from repro.schedulers import make_scheduler

WAVE = 16
TOP_LEVEL = ("EarliestStartFlexible.schedule", "ReservationService.submit", "Gateway.submit_many")


class Phases:
    """Runs the phases; the host-speed reference ticks between their calls.

    A phase is ``{"ops", "wall_s", "cpu_s", "burst_ns", "latencies"}``:
    wall and CPU are the program's (the reference's share is taken out),
    ``burst_ns`` is the mean reference burst while the phase ran.
    """

    def __init__(self, platform: Platform, tracer: stack_tracer.Tracer | None) -> None:
        self.platform = platform
        self.tracer = tracer
        self.reference = Reference()
        self.phases: dict[str, dict[str, Any]] = {}
        self.failures: list[str] = []

    def mark(self) -> None:
        if self.tracer is not None:
            self.tracer.mark()

    def timed(
        self,
        name: str,
        items: list[Any],
        step: Callable[[Any], float | None],
        weight: Callable[[Any], int] = lambda item: 1,
    ) -> None:
        """Run ``step(item)`` over ``items`` as one timed phase.

        ``weight(item)`` is how many operations an item decides; ``step``
        may return a latency (seconds) to keep as a sample.  A phase that
        is one long call cannot be ticked through, so a block of bursts
        runs on either side of every phase.
        """
        reference = self.reference
        clock = time.perf_counter
        latencies = []
        before = reference.totals()
        reference.block()
        inside = reference.totals()
        self.mark()
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        due = clock() + TICK_S
        for item in items:
            latency = step(item)
            if latency is not None:
                latencies.append(latency)
            if clock() >= due:
                reference.burst()
                due = clock() + TICK_S
        wall, cpu = time.perf_counter_ns() - wall, time.process_time_ns() - cpu
        self.mark()
        ticked = reference.totals()
        reference.block()
        after = reference.totals()
        bursts = after["bursts"] - before["bursts"]
        self.phases[name] = {
            "ops": sum(weight(item) for item in items),
            "wall_s": (wall - (ticked["wall_ns"] - inside["wall_ns"])) / 1e9,
            "cpu_s": (cpu - (ticked["cpu_ns"] - inside["cpu_ns"])) / 1e9,
            "burst_ns": (after["wall_ns"] - before["wall_ns"]) / bursts,
            "latencies": latencies,
        }

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.failures.append(why)

    # ------------------------------------------------------------------
    def scheduler(self, stream: list[dict[str, Any]]) -> None:
        requests = RequestSet(
            Request(
                rid=rid,
                ingress=body["ingress"],
                egress=body["egress"],
                volume=body["volume"],
                t_start=body["at"],
                t_end=body["deadline"],
                max_rate=self.platform.bottleneck(body["ingress"], body["egress"]),
            )
            for rid, body in enumerate(stream)
        )
        problem = ProblemInstance(self.platform, requests)
        scheduler = make_scheduler("bookahead")
        results = []
        self.timed(
            "scheduler",
            [problem],
            lambda p: results.append(scheduler.schedule(p)),
            lambda p: p.num_requests,
        )
        self.phases["scheduler"]["accepted"] = results[0].num_accepted
        try:
            verify_schedule(self.platform, requests, results[0])
        except ReproError as exc:
            self.check(False, f"scheduler: verify_schedule: {exc}")

    def service(self, stream: list[dict[str, Any]]) -> None:
        service = ReservationService(self.platform)
        accepted = []

        def submit(body: dict[str, Any]) -> None:
            reservation = service.submit(
                ingress=body["ingress"],
                egress=body["egress"],
                volume=body["volume"],
                deadline=body["deadline"],
                now=body["at"],
            )
            accepted.append(reservation.confirmed)

        self.timed("service", stream, submit)
        self.phases["service"]["accepted"] = sum(accepted)
        self.check(
            service.max_overcommit() <= CAPACITY_SLACK * 1000.0,
            f"service: ledger overcommitted by {service.max_overcommit()}",
        )

    def gateway(self, stream: list[dict[str, Any]], shards: int, journal: Path) -> Gateway:
        gateway = Gateway(
            self.platform, num_shards=shards, batch_size=8, journal=Journal(path=journal)
        )
        # A wave is (submissions, instant): all sixteen decide at the
        # arrival of the last one, like a frontier flush.
        waves = [
            (
                [
                    {key: body[key] for key in ("ingress", "egress", "volume", "deadline")}
                    for body in stream[i : i + WAVE]
                ],
                stream[min(i + WAVE, len(stream)) - 1]["at"],
            )
            for i in range(0, len(stream), WAVE)
        ]
        clock = time.perf_counter

        def submit(wave: tuple[list[dict[str, Any]], float]) -> float:
            start = clock()
            gateway.submit_many(wave[0], now=wave[1])
            return clock() - start

        name = f"gateway_s{shards}"
        self.timed(name, waves, submit, lambda wave: len(wave[0]))
        self.phases[name].update(
            accepted=gateway.stats.accepted,
            counters=gateway_counters(gateway, gateway.journal),
        )
        decided = gateway.stats.accepted + gateway.stats.rejected
        self.check(decided == len(stream), f"{name}: {decided} decided of {len(stream)}")
        audit = check_gateway(gateway, expect_quiesced=True)
        self.check(audit.ok, f"{name}: check_gateway: {audit.violations[:3]}")
        return gateway

    def replay(self, original: Gateway, journal: Path) -> None:
        rebuilt = []
        self.timed(
            "replay",
            [journal],
            lambda path: rebuilt.append(Gateway.replay(Journal.load(path))),
            lambda path: original.stats.submits,
        )
        self.check(
            snapshot_digest(rebuilt[0].snapshot()) == snapshot_digest(original.snapshot()),
            "replay: snapshot differs from the gateway that wrote the journal",
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace is not None:
        tracer = stack_tracer.Tracer()
        tracer.install(stack_tracer.CORE_TARGETS, mint=TOP_LEVEL)
    stream = json.loads(args.inputs.read_text())
    platform = Platform.uniform(16, 16, 1000.0)
    say(event="ready")

    run = Phases(platform, tracer)
    run.scheduler(stream)
    run.service(stream)
    one = run.gateway(stream, 1, args.workdir / "wal_s1.jsonl")
    four = run.gateway(stream, 4, args.workdir / "wal_s4.jsonl")
    run.check(
        one.stats.accepted == four.stats.accepted,
        f"accept counts differ: {one.stats.accepted} at 1 shard, {four.stats.accepted} at 4",
    )
    run.replay(four, args.workdir / "wal_s4.jsonl")
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    say(event="result", phases=run.phases, failures=run.failures, peak_rss_mb=peak_rss_mb())
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
