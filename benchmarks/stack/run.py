"""The repo's wall-clock benchmark: four workloads against the whole stack.

    python3 benchmarks/stack/run.py --seed 1

generates seeded inputs, drives ``serve_light``, ``serve_hot``,
``serve_mixed_open`` and ``direct_core`` against the program running in a
child process, prints every metric by name with its unit, verifies the
outputs, and writes ``BENCH_stack.json`` + ``TRACE_<workload>.json`` under
``benchmarks/stack/out/``.  README.md says why each workload exists and
what each layer metric is expected to move.

End-to-end numbers come from ``REPEATS`` untraced runs of identical
inputs, each on a fresh child, reported as the median with the repeats
beside it.  The box this was sized on changes CPU speed under the
benchmark by up to 1.6x, for milliseconds or for minutes, so the children
run a fixed reference burst beside the program (``child.Reference``) and
every CPU-bound time is scaled to the speed at which that burst takes
``REFERENCE_NS``; the unscaled readings are stored as ``raw``.  The
per-layer ledger comes from the *trace stage*: the first quarter of the
same inputs run twice more, untraced and then with ``tracer.py`` installed.

``--workload W --trace 0|1`` is the form the benchmark driver calls: one
workload, end-to-end metrics only (0) or the per-layer ledger only (1),
and a last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform as host
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import inputs
import loadgen
import tracer as stack_tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("serve_light", "serve_hot", "serve_mixed_open", "direct_core")

#: Untraced runs per workload, each on a fresh child; metrics are medians.
REPEATS = 3
#: Untimed operations before every timed window.
WARMUP_OPS = 1008
#: Sizing constants: timed operations per second of ``--seconds`` (split
#: over the repeats).  Fixed, never adaptive — sized on a 2-core box so
#: that a repeat's timed window lasts about ``seconds / REPEATS``.
SIZING_OPS_PER_S = {"serve_light": 2000, "serve_hot": 750, "direct_core": 600}
#: Open-loop offered rates (operations/s) of the three equal-length stages.
STAGE_RATES = (100.0, 200.0, 300.0)
#: Share of a repeat's inputs the trace stage replays.
TRACE_SHARE = 0.25
#: ``loadgen.max_stage_ok``: a stage passes with p90 at or under this and
#: no more than ``BACKLOG_SHARE`` of its operations still open at its end.
STAGE_P90_LIMIT_MS = 25.0
BACKLOG_SHARE = 0.02
#: The host speed every CPU-bound time is expressed at: the reference
#: burst (``child.Reference``) takes this long on the box's fast side.
REFERENCE_NS = 500_000.0
#: Times left as read off the wall clock: the open loop's throughput is
#: its schedule's, whatever the host does.
UNSCALED = {("serve_mixed_open", "ops_per_s")}
#: ``--quick`` (the test suite): tiny counts, one repeat.
QUICK_SECONDS = 0.6
QUICK_WARMUP_OPS = 96

#: name -> unit.  Direction and bound of each live in BENCHMARK.json.
END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "accept_ratio": "ratio",
    "setup_s": "s",
    "restart_s": "s",
    "peak_rss_mb": "MB",
}

#: Extra per-layer metrics beside ``<layer>.self_us_per_op`` / ``calls_per_op``.
LAYER_EXTRAS = {
    "loadgen.busy_share": "ratio",
    "loadgen.late_ms_p90": "ms",
    "loadgen.lat_p99_ms": "ms",
    "loadgen.stage1.lat_p90_ms": "ms",
    "loadgen.stage2.lat_p90_ms": "ms",
    "loadgen.stage3.lat_p90_ms": "ms",
    "loadgen.max_stage_ok": "count",
    "serve.http.bytes_in_per_op": "B/op",
    "serve.http.bytes_out_per_op": "B/op",
    "serve.frontier.wave_size_mean": "count",
    "serve.frontier.linger_wait_us_per_op": "us",
    "gateway.batch.occupancy_mean": "count",
    "gateway.gateway.submit_many.s1_us_per_request": "us",
    "gateway.gateway.submit_many.s4_us_per_request": "us",
    "gateway.twophase.fastpath_ratio": "ratio",
    "gateway.twophase.cross_shard_ratio": "ratio",
    "gateway.broker.holds_per_op": "1/op",
    "core.booking.candidates_per_decision": "count",
    "core.capacity.queries_per_op": "1/op",
    "core.capacity.segments_max": "count",
    "control.journal.appends_per_op": "1/op",
    "control.journal.bytes_per_op": "B/op",
    "control.service.submit_us_per_request": "us",
    "schedulers.bookahead_us_per_request": "us",
    "obs.events_per_op": "1/op",
    "obs.spans_per_op": "1/op",
    "trace.overhead_ratio": "ratio",
}


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric name -> unit, in ledger order."""
    spec: dict[str, str] = {}
    for layer in stack_tracer.LAYERS:
        spec[f"{layer}.self_us_per_op"] = "us"
        spec[f"{layer}.calls_per_op"] = "1/op"
    spec.update(LAYER_EXTRAS)
    return spec


# ----------------------------------------------------------------------
# Inputs: everything a run will send, made from the seed before timing
# ----------------------------------------------------------------------
def timed_ops(workload: str, seconds: float) -> int:
    """Timed operations of one repeat (a multiple of the batch size)."""
    per_repeat = SIZING_OPS_PER_S[workload] * seconds / REPEATS
    return max(loadgen.BATCH, round(per_repeat / loadgen.BATCH) * loadgen.BATCH)


def make_plan(
    workload: str, seed: int, seconds: float, warmup: int, share: float
) -> dict[str, Any]:
    """The inputs of one run; ``share`` < 1 keeps their first part only."""
    if workload == "serve_mixed_open":
        stage_s = seconds / REPEATS / len(STAGE_RATES) * share
        stages = tuple((stage_s, rate) for rate in STAGE_RATES)
        schedule = inputs.open_schedule(seed, stages)
        kinds = [kind for kind, _ in inputs.MIX]
        # Warm-up walks the same four operations back to back, submits first
        # so there is something to read and cancel.
        warm = ["submit"] * (warmup // 2) + [kinds[i % 4] for i in range(warmup - warmup // 2)]
        submissions = inputs.light_stream(seed, warmup + len(schedule), volume_scale=20.0)
        plan = {"schedule": schedule, "warm": warm, "submissions": submissions, "stages": stages}
        plan["digest"] = inputs.digest([schedule, submissions])
        return plan
    batches = int(timed_ops(workload, seconds) * share) // loadgen.BATCH
    count = max(1, batches) * loadgen.BATCH
    if workload == "direct_core":
        stream = inputs.hot_stream(seed, count)
        return {"stream": stream, "digest": inputs.digest(stream)}
    make = inputs.light_stream if workload == "serve_light" else inputs.hot_stream
    stream = make(seed, warmup + count)
    return {"warm": stream[:warmup], "timed": stream[warmup:], "digest": inputs.digest(stream)}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
class Child:
    """A launched child process speaking one JSON object per stdout line."""

    def __init__(self, process: asyncio.subprocess.Process, spawned: float) -> None:
        self.process = process
        self.spawned = spawned
        self.ready_s = 0.0
        #: Mean reference burst right after start-up (ns).
        self.ready_burst_ns = REFERENCE_NS

    @classmethod
    async def spawn(cls, script: str, *args: str) -> Child:
        spawned = time.perf_counter()
        process = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / script), *args, stdout=asyncio.subprocess.PIPE
        )
        return cls(process, spawned)

    async def expect(self, event: str, timeout: float = 150.0) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not line:
            raise RuntimeError(f"child exited while the runner waited for {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"child said {message!r}, expected {event!r}")
        return message

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    async def signal_and_expect(self, signum: int, event: str) -> dict[str, Any]:
        self.process.send_signal(signum)
        return await self.expect(event)

    async def reap(self) -> int:
        """Wait for the child to end; kill it if it will not."""
        try:
            return await asyncio.wait_for(self.process.wait(), 30.0)
        except asyncio.TimeoutError:
            self.process.kill()
            return await self.process.wait()

    async def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


async def spawn_server(journal: Path, trace: Path | None) -> tuple[Child, int]:
    """Launch the service; ``ready_s`` is spawn -> first ``200 /healthz``."""
    args = ["--journal", str(journal)] + (["--trace", str(trace)] if trace else [])
    child = await Child.spawn("server.py", *args)
    try:
        port = (await child.expect("listening"))["port"]
        probe = await loadgen.Connection.open(port)
        status, _ = await probe.roundtrip(loadgen.render("GET", "/healthz"))
        child.ready_s = time.perf_counter() - child.spawned
        await probe.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        child.ready_burst_ns = (await child.signal_and_expect(signal.SIGUSR2, "started"))[
            "burst_ns"
        ]
    except BaseException:
        await child.kill()
        raise
    return child, port


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
@dataclass
class Part:
    """A stretch of program time with the reference reading that goes with it."""

    ops: int
    wall_s: float
    cpu_s: float
    burst_ns: float
    latencies: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Multiplier taking a time measured here to the reference speed."""
        return REFERENCE_NS / self.burst_ns


@dataclass
class Run:
    """Everything one run of one workload measured."""

    out: loadgen.Outcome
    #: The timed window: one part for the service, one per phase for direct_core.
    parts: list[Part]
    setup: Part
    restart: Part
    peak_rss_mb: float
    own_cpu_s: float
    counters: dict[str, float]
    segments_max: float
    requests: int
    checks: list[str] = field(default_factory=list)
    bytes_out: int = 0
    bytes_in: int = 0

    @property
    def wall_s(self) -> float:
        return sum(part.wall_s for part in self.parts)

    @property
    def cpu_s(self) -> float:
        return sum(part.cpu_s for part in self.parts)


def startup(child: Child) -> Part:
    return Part(0, child.ready_s, 0.0, child.ready_burst_ns)


async def serve_run(
    workload: str, plan: dict[str, Any], workdir: Path, *, trace: Path | None, restart: bool
) -> Run:
    """Fresh child, warm-up, timed window between two marks, drain, restart."""
    journal = workdir / "wal.jsonl"
    journal.unlink(missing_ok=True)
    child, port = await spawn_server(journal, trace)
    checks: list[str] = []
    restarted = Part(0, 0.0, 0.0, REFERENCE_NS)
    try:
        connections = [await loadgen.Connection.open(port) for _ in range(loadgen.CONNECTIONS)]
        if workload == "serve_mixed_open":
            client = loadgen.MixedClient(plan["submissions"])
            warm = await loadgen.open_loop(
                connections, [(0.0, kind, 0) for kind in plan["warm"]], client
            )
        else:
            warm = await loadgen.closed_loop(
                connections, loadgen.render_batches(plan["warm"]), plan["warm"]
            )
            requests = loadgen.render_batches(plan["timed"])
        sent = [(c.bytes_out, c.bytes_in) for c in connections]
        begin = await child.signal_and_expect(signal.SIGUSR1, "mark")
        own_cpu = time.process_time()
        if workload == "serve_mixed_open":
            out = await loadgen.open_loop(connections, plan["schedule"], client)
        else:
            out = await loadgen.closed_loop(connections, requests, plan["timed"])
        own_cpu = time.process_time() - own_cpu
        end = await child.signal_and_expect(signal.SIGUSR1, "mark")
        bytes_out = sum(c.bytes_out for c in connections) - sum(b[0] for b in sent)
        bytes_in = sum(c.bytes_in for c in connections) - sum(b[1] for b in sent)
        if workload == "serve_mixed_open":
            await loadgen.verify_cancelled(connections[0], out.cancelled, out)
        rss = child.peak_rss_mb()
        for conn in connections:
            await conn.close()
        drained = await child.signal_and_expect(signal.SIGTERM, "drained")
        if await child.reap() != 0 or not drained["check_ok"]:
            checks.append(f"check_gateway after drain: {drained['violations'][:3]}")
        if warm.failed:
            checks.append(f"warm-up: {warm.failures[:3]}")
        if restart:
            successor, _ = await spawn_server(journal, None)
            try:
                restarted = startup(successor)
                again = await successor.signal_and_expect(signal.SIGTERM, "drained")
                if await successor.reap() != 0 or not again["check_ok"]:
                    checks.append(f"check_gateway after restart: {again['violations'][:3]}")
                if not again["resumed"] or again["snapshot"] != drained["snapshot"]:
                    checks.append("restarted successor's snapshot differs from the drained one")
            finally:
                await successor.kill()
    finally:
        await child.kill()
    reference = {key: end["reference"][key] - begin["reference"][key] for key in end["reference"]}
    window = Part(
        ops=out.ops,
        wall_s=out.finished - out.started,
        cpu_s=(end["cpu_ns"] - begin["cpu_ns"] - reference["cpu_ns"]) / 1e9,
        burst_ns=reference["wall_ns"] / reference["bursts"],
        latencies=[sample[0] for sample in out.samples],
    )
    return Run(
        out=out,
        parts=[window],
        setup=startup(child),
        restart=restarted,
        peak_rss_mb=rss,
        own_cpu_s=own_cpu,
        counters={k: end["counters"][k] - begin["counters"][k] for k in end["counters"]},
        segments_max=end["counters"]["segments_max"],
        requests=len(out.samples),
        checks=checks,
        bytes_out=bytes_out,
        bytes_in=bytes_in,
    )


ONLINE_PHASES = ("scheduler", "service", "gateway_s1", "gateway_s4")


async def direct_run(plan: dict[str, Any], workdir: Path, *, trace: Path | None) -> Run:
    """The in-process phases, in a child that reads the stream from a file."""
    feed = workdir / "stream.json"
    feed.write_text(json.dumps(plan["stream"]))
    args = ["--inputs", str(feed), "--workdir", str(workdir)]
    child = await Child.spawn("direct.py", *args, *(["--trace", str(trace)] if trace else []))
    own_cpu = time.process_time()
    try:
        await child.expect("ready")
        child.ready_s = time.perf_counter() - child.spawned
        result = await child.expect("result")
        await child.reap()
    finally:
        await child.kill()
    own_cpu = time.process_time() - own_cpu
    phases = result["phases"]
    parts = {
        name: Part(*(phase[key] for key in ("ops", "wall_s", "cpu_s", "burst_ns", "latencies")))
        for name, phase in phases.items()
    }
    out = loadgen.Outcome(attempted=sum(parts[name].ops for name in ONLINE_PHASES))
    out.ops = out.decided = out.attempted
    out.accepted = sum(phases[name]["accepted"] for name in ONLINE_PHASES)
    if result["failures"]:
        out.fail(len(result["failures"]), "; ".join(result["failures"]))
    counters = phases["gateway_s4"]["counters"]
    return Run(
        out=out,
        parts=[parts[name] for name in ONLINE_PHASES],
        # The scheduler phase runs first: its reference reading is start-up's.
        setup=Part(0, child.ready_s, 0.0, parts["scheduler"].burst_ns),
        restart=parts["replay"],
        peak_rss_mb=result["peak_rss_mb"],
        own_cpu_s=own_cpu,
        counters=counters,
        segments_max=counters["segments_max"],
        requests=sum(len(part.latencies) or 1 for part in parts.values()),
    )


async def one_run(
    workload: str, plan: dict[str, Any], workdir: Path, *, trace: Path | None, restart: bool
) -> Run:
    if workload == "direct_core":
        return await direct_run(plan, workdir, trace=trace)
    return await serve_run(workload, plan, workdir, trace=trace, restart=restart)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def repeat_metrics(run: Run, *, scaled: bool) -> dict[str, float]:
    """One repeat's end-to-end metrics, at reference speed or as read."""

    def scale(part: Part) -> float:
        return part.scale if scaled else 1.0

    ops = max(run.out.ops, 1)
    latencies = [
        latency * 1e3 * scale(part) for part in run.parts for latency in part.latencies
    ]
    return {
        "ops_per_s": run.out.ops / sum(part.wall_s * scale(part) for part in run.parts),
        "cpu_us_per_op": sum(part.cpu_s * scale(part) for part in run.parts) * 1e6 / ops,
        "lat_p50_ms": loadgen.percentile(latencies, 50.0),
        "lat_p90_ms": loadgen.percentile(latencies, 90.0),
        "accept_ratio": run.out.accepted / max(run.out.decided, 1),
        "setup_s": run.setup.wall_s * scale(run.setup),
        "restart_s": run.restart.wall_s * scale(run.restart),
        "peak_rss_mb": run.peak_rss_mb,
    }


def end_to_end(workload: str, runs: list[Run]) -> dict[str, dict[str, Any]]:
    """The reported metrics of one workload: medians over its repeats."""
    scaled = [repeat_metrics(run, scaled=True) for run in runs]
    raw = [repeat_metrics(run, scaled=False) for run in runs]
    report = {}
    for name, unit in END_TO_END.items():
        rows = raw if (workload, name) in UNSCALED else scaled
        report[name] = {
            "value": statistics.median(row[name] for row in rows),
            "unit": unit,
            "repeats": [row[name] for row in rows],
            "raw": [row[name] for row in raw],
        }
    return report


def stage_report(out: loadgen.Outcome, stages: tuple[tuple[float, float], ...]) -> dict[str, float]:
    """Per-stage p90 and the highest stage that keeps up (open loop only)."""
    report: dict[str, float] = {}
    best = 0
    stage_end = out.started
    for index, (seconds, _rate) in enumerate(stages):
        stage_end += seconds
        latencies = [latency * 1e3 for latency, stage in out.samples if stage == index]
        p90 = loadgen.percentile(latencies, 90.0)
        report[f"loadgen.stage{index + 1}.lat_p90_ms"] = p90
        mine = [row for row in out.timeline if row[2] == index]
        backlog = sum(1 for _due, finish, _stage in mine if finish > stage_end)
        keeps_up = backlog <= max(4, BACKLOG_SHARE * len(mine))
        if latencies and p90 <= STAGE_P90_LIMIT_MS and keeps_up and best == index:
            best = index + 1
    report["loadgen.max_stage_ok"] = float(best)
    return report


def per_layer(
    workload: str, plain: Run, traced: Run, document: dict[str, Any], plan: dict[str, Any]
) -> dict[str, float]:
    """The per-layer ledger of one trace stage (untraced + traced run).

    Times are scaled to the reference speed like the end-to-end metrics
    (one factor per window), so the ledger adds up to ``cpu_us_per_op``.
    """
    metrics = dict.fromkeys(per_layer_spec(), 0.0)
    ops = max(traced.out.ops, 1)
    plain_ops = max(plain.out.ops, 1)
    direct = workload == "direct_core"
    marks = len(document["marks"])
    # direct_core marks every phase boundary: one window per online phase.
    windows = [(i, i + 1) for i in range(0, 8, 2)] if direct else [(marks - 2, marks - 1)]
    layers: dict[str, dict[str, float]] = {}
    waits: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    for (first, last), part in zip(windows, traced.parts):
        ledger = stack_tracer.layer_ledger(document, first, last)
        for layer, row in ledger["layers"].items():
            mine = layers.setdefault(layer, {"self_ns": 0.0, "calls": 0.0})
            mine["self_ns"] += row["self_ns"] * part.scale
            mine["calls"] += row["calls"]
        for name, value in ledger["wait_ns"].items():
            waits[name] = waits.get(name, 0.0) + value
        for target, source in ((calls, "calls"), (counts, "counts")):
            for key, value in ledger[source].items():
                target[key] = target.get(key, 0.0) + value
    for layer, row in layers.items():
        metrics[f"{layer}.self_us_per_op"] = row["self_ns"] / 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = row["calls"] / ops
    # What the child burned outside every span: the asyncio loop and
    # transports for the service (CPU: it sleeps between requests), the
    # feeding loop for direct_core (wall: it never waits).
    busy_s = sum((part.wall_s if direct else part.cpu_s) * part.scale for part in traced.parts)
    residual = (busy_s * 1e9 - sum(row["self_ns"] for row in layers.values())) / 1e3 / ops
    if direct:
        metrics["loadgen.self_us_per_op"] = residual
        metrics["loadgen.calls_per_op"] = traced.requests / ops
    else:
        metrics["serve.loop.self_us_per_op"] = residual
        metrics["serve.loop.calls_per_op"] = calls.get("ServeApp.dispatch", 0.0) / ops
        metrics["loadgen.self_us_per_op"] = plain.own_cpu_s * 1e6 / plain_ops
        metrics["loadgen.calls_per_op"] = plain.requests / plain_ops

    latencies = [latency * 1e3 for part in plain.parts for latency in part.latencies]
    metrics["loadgen.busy_share"] = plain.own_cpu_s / plain.wall_s
    metrics["loadgen.late_ms_p90"] = loadgen.percentile([s * 1e3 for s in plain.out.late_s], 90.0)
    metrics["loadgen.lat_p99_ms"] = loadgen.percentile(latencies, 99.0)
    if workload == "serve_mixed_open":
        metrics.update(stage_report(plain.out, plan["stages"]))
    metrics["serve.http.bytes_in_per_op"] = plain.bytes_out / plain_ops
    metrics["serve.http.bytes_out_per_op"] = plain.bytes_in / plain_ops

    counters = traced.counters
    decided = max(counters.get("accepted", 0) + counters.get("rejected", 0), 1)
    if counters.get("waves"):
        metrics["serve.frontier.wave_size_mean"] = counters["coalesced"] / counters["waves"]
    metrics["serve.frontier.linger_wait_us_per_op"] = (
        waits.get("AdmissionFrontier.submit", 0.0) / 1e3 / ops
    )
    if counters.get("batches"):
        metrics["gateway.batch.occupancy_mean"] = decided / counters["batches"]
    metrics["gateway.twophase.fastpath_ratio"] = counters.get("fastpath_hits", 0) / decided
    metrics["gateway.twophase.cross_shard_ratio"] = counters.get("cross_shard", 0) / decided
    metrics["gateway.broker.holds_per_op"] = counts.get("holds", 0.0) / ops
    metrics["core.booking.candidates_per_decision"] = counts.get("candidates", 0.0) / max(
        counts.get("decisions", 0.0), 1.0
    )
    metrics["core.capacity.queries_per_op"] = metrics["core.capacity.calls_per_op"]
    metrics["core.capacity.segments_max"] = float(traced.segments_max)
    # direct_core reads the 4-shard gateway's counters, which saw one
    # phase's requests; the service's window counters saw every operation.
    journal_ops = decided if direct else ops
    metrics["control.journal.appends_per_op"] = counters.get("journal_entries", 0) / journal_ops
    metrics["control.journal.bytes_per_op"] = counters.get("journal_bytes", 0) / journal_ops
    metrics["obs.events_per_op"] = counters.get("events", 0) / ops
    metrics["obs.spans_per_op"] = counters.get("spans", 0) / ops
    if direct:
        for part, metric in zip(
            plain.parts,
            (
                "schedulers.bookahead_us_per_request",
                "control.service.submit_us_per_request",
                "gateway.gateway.submit_many.s1_us_per_request",
                "gateway.gateway.submit_many.s4_us_per_request",
            ),
        ):
            metrics[metric] = part.wall_s * part.scale * 1e6 / part.ops
        if traced.out.accepted != plain.out.accepted:
            traced.out.fail(
                1, f"traced run accepted {traced.out.accepted}, untraced {plain.out.accepted}"
            )
    metrics["trace.overhead_ratio"] = (
        repeat_metrics(traced, scaled=True)["cpu_us_per_op"]
        / repeat_metrics(plain, scaled=True)["cpu_us_per_op"]
    )
    return metrics


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
async def run_workload(workload: str, args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    """Everything ``args`` asks of one workload; returns its result entry."""
    seconds = QUICK_SECONDS if args.quick else args.seconds
    warmup = QUICK_WARMUP_OPS if args.quick else WARMUP_OPS
    repeats = 1 if args.quick else REPEATS
    entry: dict[str, Any] = {"attempted": 0, "failed": 0, "failures": []}
    started = time.perf_counter()

    def account(run: Run) -> None:
        out = run.out
        out.failed += len(run.checks)
        entry["attempted"] += out.attempted + len(run.checks)
        entry["failed"] += out.failed
        entry["failures"].extend(out.failures + run.checks)

    if args.trace != 1:
        plan = make_plan(workload, args.seed, seconds, warmup, 1.0)
        entry["inputs_digest"] = plan["digest"]
        runs = []
        for _ in range(repeats):
            runs.append(await one_run(workload, plan, workdir, trace=None, restart=True))
            account(runs[-1])
        entry["end_to_end"] = end_to_end(workload, runs)
        entry["latency_samples"] = sum(len(part.latencies) for part in runs[0].parts)
    if args.trace != 0:
        plan = make_plan(workload, args.seed, seconds, warmup, TRACE_SHARE)
        trace_file = args.out / f"TRACE_{workload}.json"
        plain = await one_run(workload, plan, workdir, trace=None, restart=False)
        traced = await one_run(workload, plan, workdir, trace=trace_file, restart=False)
        document = json.loads(trace_file.read_text())
        ledger = per_layer(workload, plain, traced, document, plan)
        account(plain)
        account(traced)
        spec = per_layer_spec()
        entry["per_layer"] = {
            name: {"value": value, "unit": spec[name]} for name, value in ledger.items()
        }
        entry["trace_ops"] = traced.out.ops
    entry["elapsed_s"] = time.perf_counter() - started
    return entry


def print_workload(workload: str, entry: dict[str, Any]) -> None:
    print(
        f"\n== {workload} ==  attempted {entry['attempted']}  failed {entry['failed']}"
        f"  ({entry['elapsed_s']:.1f} s)"
    )
    for name, row in entry.get("end_to_end", {}).items():
        repeats = ", ".join(f"{value:.4f}" for value in sorted(row["repeats"]))
        raw = statistics.median(row["raw"])
        print(
            f"  {name:<15} {row['value']:>12.4f} {row['unit']:<5} "
            f"(repeats: {repeats}; unscaled median {raw:.4f})"
        )
    if "latency_samples" in entry:
        print(f"  latency samples per repeat: {entry['latency_samples']}")
    for name, row in entry.get("per_layer", {}).items():
        print(f"  {name:<48} {row['value']:>14.4f} {row['unit']}")
    for failure in entry["failures"][:10]:
        print(f"  FAILED: {failure}")


async def main_async(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: dict[str, Any] = {}
    try:
        for workload in names:
            results[workload] = await run_workload(workload, args, workdir)
            print_workload(workload, results[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(entry["attempted"] for entry in results.values())
    failed = sum(entry["failed"] for entry in results.values())
    document = {
        "kind": "bench-stack",
        "version": 1,
        "seed": args.seed,
        "seconds": QUICK_SECONDS if args.quick else args.seconds,
        "quick": args.quick,
        "machine": {"nproc": os.cpu_count(), "python": host.python_version()},
        "sizing": {
            "repeats": REPEATS,
            "warmup_ops": WARMUP_OPS,
            "ops_per_s": SIZING_OPS_PER_S,
            "stage_rates": STAGE_RATES,
            "trace_share": TRACE_SHARE,
            "connections": loadgen.CONNECTIONS,
            "batch": loadgen.BATCH,
        },
        "fail_ratio": failed / max(attempted, 1),
        "workloads": results,
    }
    (args.out / "BENCH_stack.json").write_text(json.dumps(document, indent=1) + "\n")
    metrics: dict[str, Any] = {}
    for workload, entry in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, row in entry.get("end_to_end", {}).items():
            metrics[prefix + name] = {"value": row["value"], "unit": row["unit"]}
        for name, row in entry.get("per_layer", {}).items():
            metrics[prefix + name] = row
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"stack benchmark: no program to measure at {ROOT}/src/repro", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="tiny counts, one repeat (tests)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    return asyncio.run(main_async(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
