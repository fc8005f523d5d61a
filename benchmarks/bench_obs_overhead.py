"""Tracing overhead guard for the sharded gateway.

One gate, covering the causal-tracing plane end to end: the full sharded
gateway on ``bench_chaos``'s wave workload with tracing
enabled (every RPC hop spans, every decision event carries its trace
context) must make byte-identical admission decisions to the same run
under :class:`~repro.obs.telemetry.NullTelemetry` — tracing observes, it
never steers — and is gated in wall time: the median traced/null ratio
of ``TRACING_ROUNDS`` paired rounds, ``traced_over_null_wall``, must stay
under ``MAX_TRACING_WALL``.
The write path only stores (ring records, bound metric samples —
docs/OBSERVABILITY.md, "Write path / read path"); that took this ratio
from 1.84 to about 1.45, and storing each decision as two records (its
submit and its admission, together rendering 4.66 spans; 2.25 ring
records per decision with the batch's span, 1.25 events, 5 metric
samples) took it to about 1.30: a traced decision costs ~13 us more than
an untraced ~41 us one (~17 us more with one stored hop per span).
Counting the per-decision and per-flush counters as integer tallies the
registry folds in on read, storing a flushed batch as one record for its
span and event, and reading the overcommit probe's peak off the port took
the median of five runs from 1.29 (1.23-1.31) to 1.22 (1.17-1.40, one
slow-phase outlier) on a 2-core host, parent and change alternated.
ROADMAP's target for tracing that stays on in production is 1.10x.

The ceiling, 1.36, was set as the worst of five min-of-40 runs (1.28-1.31
on a 2-core host) plus 0.05, so that a return of per-span recording
(1.43-1.44 on the same host) fails it.  A min of each side over 40
alternated runs of ~15 ms still failed it at unchanged code (2 runs in
38): one quiet run on the null side is enough.  Each round now times one
run of each side, the side that goes first alternating, so a slow phase
of the host lands on both sides of a round, and the median of the
rounds' ratios drops the rounds a spike hit.

Timing uses the injectable :class:`~repro.obs.perfclock.WallClock` — the
only sanctioned wall-clock source.  Results land in
``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import json
import statistics
from collections.abc import Callable

from bench_chaos import CAP, PORTS, wave_workload

from repro.core import Platform
from repro.gateway import Gateway
from repro.obs import NullTelemetry, Telemetry, WallClock, use_telemetry
from repro.obs.perfclock import PerfClock

from conftest import RESULTS_DIR

#: Allowed traced/null wall-clock ratio of the same gateway run.
MAX_TRACING_WALL = 1.36
#: Paired rounds of the gate (one run of each side per round).
TRACING_ROUNDS = 60


def _wall(clock: PerfClock, fn: Callable[[], object]) -> float:
    """Wall time of one call of ``fn``."""
    t0 = clock.now()
    fn()
    return clock.now() - t0


def test_traced_gateway_overhead_wall():
    # Both sides run under a capped process-wide handle (the booking
    # counters go to it whatever the gateway's own handle is): the gate
    # was set with one installed.
    with use_telemetry(Telemetry(max_events=20_000, max_spans=20_000)):
        measure_tracing_overhead()


def measure_tracing_overhead():
    clock = WallClock()
    submissions = wave_workload()

    def run_gateway(telemetry):
        gateway = Gateway(
            Platform.uniform(PORTS, PORTS, CAP),
            num_shards=4,
            batch_size=4,
            telemetry=telemetry,
        )
        for sub in submissions:
            gateway.submit(**sub)
        gateway.drain(submissions[-1]["now"])
        return gateway

    # Tracing must observe, never steer: byte-identical admission state.
    null_gw = run_gateway(NullTelemetry())
    traced_gw = run_gateway(Telemetry())
    assert traced_gw.snapshot() == null_gw.snapshot()
    assert vars(traced_gw.stats) == vars(null_gw.stats)
    spans = len(traced_gw.telemetry.tracer)
    assert spans > 0, "traced run recorded no spans — the gate measures nothing"

    run_gateway(NullTelemetry())  # warm-up
    run_gateway(Telemetry())  # warm-up
    null_times, traced_times, ratios = [], [], []
    for round_ in range(TRACING_ROUNDS):
        if round_ % 2:
            null_s = _wall(clock, lambda: run_gateway(NullTelemetry()))
            traced_s = _wall(clock, lambda: run_gateway(Telemetry()))
        else:
            traced_s = _wall(clock, lambda: run_gateway(Telemetry()))
            null_s = _wall(clock, lambda: run_gateway(NullTelemetry()))
        null_times.append(null_s)
        traced_times.append(traced_s)
        ratios.append(traced_s / null_s)
    wall_ratio = statistics.median(ratios)
    null_time, traced_time = statistics.median(null_times), statistics.median(traced_times)

    tracing = {
        "submissions": len(submissions),
        "rounds": TRACING_ROUNDS,
        "spans_per_run": spans,
        "decisions_identical": True,
        "null_wall_seconds": null_time,
        "traced_wall_seconds": traced_time,
        "traced_over_null_wall": wall_ratio,
        "max_tracing_wall": MAX_TRACING_WALL,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(
        json.dumps({"tracing": tracing}, indent=2, sort_keys=True) + "\n"
    )

    assert wall_ratio <= MAX_TRACING_WALL, (
        f"traced gateway takes {wall_ratio:.2f}x the wall time of the untraced one "
        f"(gate: <= {MAX_TRACING_WALL}x); null={null_time:.6f}s traced={traced_time:.6f}s"
    )
