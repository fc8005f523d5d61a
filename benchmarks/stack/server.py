"""Benchmark-owned launcher: the service under test, in its own process.

Started by ``run.py`` as a child so that server CPU, RSS and start-up are
the program's and not the generator's.  The configuration is the
``bench_serve`` one — ``ServeApp(ServeConfig(platform=Platform.uniform(16,
16, 1000.0), num_shards=4, batch_size=8, slo_rules=(), journal_path=...),
clock=LogicalClock())`` — with the default capacity backend, default
telemetry and the write-ahead journal on disk.  A journal that already
holds history makes this process the restarted successor
(``Journal.load`` + ``Gateway.resume`` inside ``ServeApp``).

Protocol (one JSON object per stdout line):

- ``{"event": "listening", "port": N}`` once the socket accepts;
- ``SIGUSR1`` -> ``{"event": "mark", ...}``: process CPU, the program's
  counters and the host-speed reference's totals at a timed-window
  boundary (the reference ticks beside the program, see ``child.py``);
- ``SIGUSR2`` -> ``{"event": "started", "burst_ns": ...}``: the reference
  read in one block, for scaling the start-up that just ended;
- ``SIGTERM`` -> graceful drain, ``check_gateway(expect_quiesced=True)``,
  ``{"event": "drained", ...}`` with the snapshot digests, then exit 0.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import signal
import sys
import time
from pathlib import Path

import tracer as stack_tracer
from child import TICK_S, Reference, gateway_counters, say, snapshot_digest

from repro.core.platform import Platform
from repro.gateway.invariants import check_gateway
from repro.serve import LogicalClock, ServeApp, ServeConfig

#: Reference bursts read back to back after start-up (~40 ms).
STARTUP_BURSTS = 64


def app_counters(app: ServeApp) -> dict[str, float]:
    counters = gateway_counters(app.gateway, app.journal)
    telemetry = app.telemetry
    counters.update(
        waves=app.frontier.waves,
        coalesced=app.frontier.coalesced,
        events=len(telemetry.events) + telemetry.events_dropped,
        spans=len(telemetry.tracer) + telemetry.tracer.dropped,
    )
    return counters


async def serve(journal: Path, trace_path: Path | None) -> int:
    tracer = None
    if trace_path is not None:
        tracer = stack_tracer.Tracer()
        tracer.install(stack_tracer.CORE_TARGETS + stack_tracer.SERVE_TARGETS)
    app = ServeApp(
        ServeConfig(
            platform=Platform.uniform(16, 16, 1000.0),
            num_shards=4,
            batch_size=8,
            slo_rules=(),
            journal_path=journal,
        ),
        clock=LogicalClock(),
    )
    resumed = len(app.journal) > 0
    if math.isfinite(app.gateway.now):
        # A resumed gateway is ahead of a fresh logical clock; the drain
        # below must not ask it to move time backwards.
        app.clock.advance(app.gateway.now)
    if tracer is not None:
        stack_tracer.trace_routes(tracer, app)
    _, port = await app.start()

    reference = Reference()

    def mark() -> None:
        cpu_ns = time.process_time_ns()
        totals = reference.totals()
        counters = app_counters(app)
        if tracer is not None:
            tracer.mark()
        say(event="mark", cpu_ns=cpu_ns, reference=totals, counters=counters)

    def started() -> None:
        # Nothing can tick while a process starts: read the host's speed
        # in one block as soon as it has (the runner asks once, after its
        # first /healthz).
        say(event="started", burst_ns=reference.block(STARTUP_BURSTS))

    loop = asyncio.get_running_loop()

    def tick() -> None:
        reference.burst()
        loop.call_later(TICK_S, tick)

    tick()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGUSR1, mark)
    loop.add_signal_handler(signal.SIGUSR2, started)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    say(event="listening", port=port)
    await stop.wait()

    # The state identity a restart must preserve: what a fresh process
    # leaves behind after its drain is what its successor must hold
    # before its own (a drain journals one more op).
    digest = snapshot_digest(app.snapshot()) if resumed else None
    await app.drain()
    audit = check_gateway(app.gateway, expect_quiesced=True)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path)
    say(
        event="drained",
        check_ok=audit.ok,
        violations=list(audit.violations),
        resumed=resumed,
        snapshot=digest if resumed else snapshot_digest(app.snapshot()),
    )
    return 0 if audit.ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()
    return asyncio.run(serve(args.journal, args.trace))


if __name__ == "__main__":
    sys.exit(main())
