"""Null-telemetry overhead guard for the booking hot path.

The telemetry layer promises that uninstrumented runs pay one attribute
read and a branch per instrumented call.  This bench holds it to that: it
times the instrumented :func:`repro.core.booking.earliest_fit` under the
default :class:`~repro.obs.telemetry.NullTelemetry` against a verbatim
copy of the pre-instrumentation search (the seed implementation, inlined
below so the baseline cannot silently drift), and asserts the overhead
stays under 5%.

A second gate covers the causal-tracing plane end to end: the full
sharded gateway on ``bench_chaos``'s wave workload with tracing
enabled (every RPC hop spans, every decision event carries its trace
context) must make byte-identical admission decisions to the same run
under :class:`~repro.obs.telemetry.NullTelemetry` — tracing observes, it
never steers — and is gated in wall time: the min-of-repeats
``traced_over_null_wall`` ratio must stay under
``MAX_TRACING_WALL = 1.5``.  The write path only stores (ring records,
bound metric samples — docs/OBSERVABILITY.md, "Write path / read path");
that took this ratio from 1.84 to about 1.40 on this workload.  ROADMAP's
target for tracing that stays on in production is 1.10x: the result is
still ~0.30 away, i.e. a traced decision still costs ~25 us more than an
untraced ~65 us one (5.9 stored hops, 1.25 events, 5 metric samples and
the trace contexts of one submission).

Timing uses the injectable :class:`~repro.obs.perfclock.WallClock` — the
only sanctioned wall-clock source — with a min-of-repeats protocol so a
single noisy run cannot fail CI.  Results land in
``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import json
from collections.abc import Callable

import numpy as np

from bench_chaos import CAP, PORTS, wave_workload

from repro.core import Platform, PortLedger, Request
from repro.core.booking import deadline_tolerance, earliest_fit
from repro.gateway import Gateway
from repro.obs import NullTelemetry, Telemetry, WallClock, use_telemetry
from repro.obs.perfclock import PerfClock

from conftest import RESULTS_DIR

#: Allowed instrumented/seed ratio for the null-telemetry path.
MAX_NULL_OVERHEAD = 1.05
#: Allowed traced/null wall-clock ratio of the same gateway run.
MAX_TRACING_WALL = 1.5
REPEATS = 15
TRACING_REPEATS = 15


# ----------------------------------------------------------------------
# The seed earliest_fit, copied verbatim from core/booking.py as of the
# commit before instrumentation.  Do not "fix" or share code with the
# library version: this IS the baseline.
# ----------------------------------------------------------------------
def _seed_min_rate_for(request: Request, sigma: float) -> float | None:
    needed = request.rate_for_deadline(sigma)
    if needed > request.max_rate * (1 + 1e-9):
        return None
    return min(needed, request.max_rate)


def _seed_earliest_fit(ledger, request, rate_for=None, *, not_before=None):
    if rate_for is None:
        rate_for = lambda sigma: _seed_min_rate_for(request, sigma)  # noqa: E731
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    latest = request.t_end - request.min_duration
    if latest < earliest:
        return None
    starts = {earliest}
    points = list(ledger.ingress_timeline(request.ingress).breakpoints())
    points.extend(ledger.egress_timeline(request.egress).breakpoints())
    points.extend(ledger.degradation_edges("ingress", request.ingress))
    points.extend(ledger.degradation_edges("egress", request.egress))
    for t in points:
        if earliest < t <= latest:
            starts.add(float(t))
    tol = deadline_tolerance(request.t_end)
    for sigma in sorted(starts):
        bw = rate_for(sigma)
        if bw is None or bw <= 0:
            continue
        tau = sigma + request.volume / bw
        if tau > request.t_end + tol:
            continue
        if ledger.fits(request.ingress, request.egress, sigma, tau, bw):
            from repro.core.allocation import Allocation

            return Allocation.for_request(request, bw, sigma=sigma)
    return None


# ----------------------------------------------------------------------
def _workload(n: int = 300) -> tuple[Platform, PortLedger, list[Request]]:
    """A ledger with standing load plus a batch of probe requests."""
    platform = Platform.paper_platform()
    ledger = PortLedger(platform)
    rng = np.random.default_rng(7)
    for _ in range(200):
        i, e = int(rng.integers(10)), int(rng.integers(10))
        t0 = float(rng.uniform(0, 5e3))
        bw = float(rng.uniform(1, 40))
        if ledger.fits(i, e, t0, t0 + 300, bw):
            ledger.allocate(i, e, t0, t0 + 300, bw)
    requests = []
    for k in range(n):
        t0 = float(rng.uniform(0, 5e3))
        window = float(rng.uniform(600, 4000))
        bw_cap = float(rng.uniform(20, 200))
        requests.append(
            Request(
                rid=k,
                ingress=int(rng.integers(10)),
                egress=int(rng.integers(10)),
                volume=float(rng.uniform(0.1, 0.9)) * bw_cap * window,
                t_start=t0,
                t_end=t0 + window,
                max_rate=bw_cap,
            )
        )
    return platform, ledger, requests


def _time_min(clock: PerfClock, fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = clock.now()
        fn()
        t1 = clock.now()
        best = min(best, t1 - t0)
    return best


def test_null_telemetry_overhead_under_5_percent():
    clock = WallClock()
    _, ledger, requests = _workload()

    def run_seed() -> int:
        hits = 0
        for request in requests:
            if _seed_earliest_fit(ledger, request) is not None:
                hits += 1
        return hits

    def run_instrumented() -> int:
        hits = 0
        for request in requests:
            if earliest_fit(ledger, request) is not None:
                hits += 1
        return hits

    # Identical decisions first — a baseline that computes something else
    # would make the timing comparison meaningless.
    assert run_seed() == run_instrumented()

    with use_telemetry(NullTelemetry()):
        run_instrumented()  # warm-up
        null_time = _time_min(clock, run_instrumented)
    run_seed()  # warm-up
    seed_time = _time_min(clock, run_seed)

    with use_telemetry(Telemetry()):
        run_instrumented()  # warm-up
        enabled_time = _time_min(clock, run_instrumented)

    null_ratio = null_time / seed_time
    enabled_ratio = enabled_time / seed_time

    _merge_results(
        "booking",
        {
            "requests": len(requests),
            "repeats": REPEATS,
            "seed_seconds": seed_time,
            "null_seconds": null_time,
            "enabled_seconds": enabled_time,
            "null_over_seed": null_ratio,
            "enabled_over_seed": enabled_ratio,
            "max_null_overhead": MAX_NULL_OVERHEAD,
        },
    )

    assert null_ratio < MAX_NULL_OVERHEAD, (
        f"null-telemetry booking path is {null_ratio:.3f}x the seed implementation "
        f"(budget {MAX_NULL_OVERHEAD}x); seed={seed_time:.6f}s null={null_time:.6f}s"
    )


def _merge_results(section: str, payload: dict[str, object]) -> None:
    """Read-modify-write one section of ``BENCH_obs.json``.

    The booking and tracing gates run as separate tests; merging keeps one
    artifact regardless of which subset a CI shard executed.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    document: dict[str, object] = {}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        if "null_over_seed" in document:  # pre-sectioned layout
            document = {"booking": document}
    document[section] = payload
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


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
        null_time = min(null_time, _time_min(clock, lambda: run_gateway(NullTelemetry()), 1))
        traced_time = min(traced_time, _time_min(clock, lambda: run_gateway(Telemetry()), 1))
    wall_ratio = traced_time / null_time

    _merge_results(
        "tracing",
        {
            "submissions": len(submissions),
            "repeats": TRACING_REPEATS,
            "spans_per_run": spans,
            "decisions_identical": True,
            "null_wall_seconds": null_time,
            "traced_wall_seconds": traced_time,
            "traced_over_null_wall": wall_ratio,
            "max_tracing_wall": MAX_TRACING_WALL,
        },
    )

    assert wall_ratio <= MAX_TRACING_WALL, (
        f"traced gateway takes {wall_ratio:.2f}x the wall time of the untraced one "
        f"(gate: <= {MAX_TRACING_WALL}x); null={null_time:.6f}s traced={traced_time:.6f}s"
    )
