"""Tracing overhead guard for the sharded gateway.

One gate, covering the causal-tracing plane end to end: the full sharded
gateway on ``bench_chaos``'s wave workload with tracing
enabled (every RPC hop spans, every decision event carries its trace
context) must make byte-identical admission decisions to the same run
under :class:`~repro.obs.telemetry.NullTelemetry` — tracing observes, it
never steers — and is gated in wall time: the min-of-repeats
``traced_over_null_wall`` ratio must stay under ``MAX_TRACING_WALL``.
The write path only stores (ring records, bound metric samples —
docs/OBSERVABILITY.md, "Write path / read path"); that took this ratio
from 1.84 to about 1.45, and storing each decision as two records (its
submit and its admission, together rendering 4.66 spans; 2.25 ring
records per decision with the batch's span, 1.25 events, 5 metric
samples) took it to about 1.30: a traced decision costs ~13 us more than
an untraced ~41 us one (~17 us more with one stored hop per span).
ROADMAP's target for tracing that stays on in production is 1.10x.

The gate is the worst of five runs at 40 repeats (1.28-1.31 on a 2-core
host) plus 0.05, so a return of per-span recording (1.43-1.44 at 40
repeats on the same host) fails it.  ``TRACING_REPEATS`` is 40 because at
15 the ratio read 1.40-1.52 on the per-span path, failing a 1.5 gate one
run in three.

Timing uses the injectable :class:`~repro.obs.perfclock.WallClock` — the
only sanctioned wall-clock source — with a min-of-repeats protocol so a
single noisy run cannot fail CI.  Results land in
``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from bench_chaos import CAP, PORTS, wave_workload

from repro.core import Platform
from repro.gateway import Gateway
from repro.obs import NullTelemetry, Telemetry, WallClock
from repro.obs.perfclock import PerfClock

from conftest import RESULTS_DIR

#: Allowed traced/null wall-clock ratio of the same gateway run.
MAX_TRACING_WALL = 1.36
TRACING_REPEATS = 40


def _wall(clock: PerfClock, fn: Callable[[], object]) -> float:
    """Wall time of one call of ``fn``."""
    t0 = clock.now()
    fn()
    return clock.now() - t0


def test_traced_gateway_overhead_wall():
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
    # Alternate the two sides so a slow phase of the host lands on both;
    # the min of each filters what is left.
    null_time = traced_time = float("inf")
    for _ in range(TRACING_REPEATS):
        null_time = min(null_time, _wall(clock, lambda: run_gateway(NullTelemetry())))
        traced_time = min(traced_time, _wall(clock, lambda: run_gateway(Telemetry())))
    wall_ratio = traced_time / null_time

    tracing = {
        "submissions": len(submissions),
        "repeats": TRACING_REPEATS,
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
