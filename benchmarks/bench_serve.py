"""Service-plane smoke: ≥100k live HTTP submits + journaled restart gate.

Two phases against a real listening ``ServeApp``:

**Smoke** — a closed-loop :mod:`repro.loadgen` fleet pushes at least
``MIN_SUBMITS`` submissions through the batch endpoint of one service
instance and the run gates on wall-clock admission latency (p99 under
``P99_BUDGET_S``), zero transport/HTTP errors, and a clean
:func:`check_gateway` after drain.  The workload is sized so the active
reservation set stays bounded (windows a little over two fleet rounds):
throughput then measures the service, not timeline bloat.

**Restart** — a single deterministic client drives journaled waves,
drains mid-run, and a successor built over the same journal must be
snapshot-equal, invariant-clean, and decision-equivalent to an
uninterrupted in-process gateway fed identical waves.

Artifacts: ``BENCH_serve.json`` (both phases), ``LOADGEN_serve.json``
(the schema-validated loadgen artifact), ``BENCH_serve.txt`` (summary).
"""

from __future__ import annotations

import asyncio
import json

from repro.core.platform import Platform
from repro.gateway import Gateway
from repro.gateway.invariants import check_gateway
from repro.loadgen import (
    LoadgenConfig,
    ServiceClient,
    SubmissionPlan,
    percentile,
    run_load,
)
from repro.obs import NullTelemetry, use_telemetry
from repro.obs.perfclock import WallClock
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock
from repro.workload.durations import UniformDurations
from repro.workload.volumes import UniformVolumes

#: The CI smoke must decide at least this many live submissions.
MIN_SUBMITS = 100_000
#: Wall-clock p99 of one batched submit round trip (generous: CI is slow).
P99_BUDGET_S = 3.0

PLATFORM = Platform.uniform(16, 16, 1000.0)
CLIENTS = 8
BATCH = 128
#: Target slightly above the gate so a handful of stale-window entries
#: (outcome "invalid") cannot drag the decided count below MIN_SUBMITS.
TARGET = 104_000

#: One fleet round advances simulated time by CLIENTS * BATCH seconds
#: (mean inter-arrival 1.0); windows must outlive a couple of rounds or
#: a slow client's entries go stale before their wave flushes.
ROUND_S = float(CLIENTS * BATCH)
SMOKE_FLOOR_S = 2.2 * ROUND_S


def smoke_plan(n: int) -> SubmissionPlan:
    """Bounded-active-set workload: short transfers, round-proof windows."""
    return SubmissionPlan(
        PLATFORM,
        n,
        seed=1,
        mean_interarrival=1.0,
        volumes=UniformVolumes(1.0, 100.0),
        durations=UniformDurations(30.0, 120.0),
        deadline_floor=SMOKE_FLOOR_S,
    )


def serve_config(**overrides) -> ServeConfig:
    settings = dict(
        platform=PLATFORM,
        num_shards=4,
        batch_size=8,
        slo_rules=(),
    )
    settings.update(overrides)
    return ServeConfig(**settings)


async def _smoke() -> tuple[dict, dict]:
    app = ServeApp(serve_config(), clock=LogicalClock())
    host, port = await app.start()
    config = LoadgenConfig(
        host=host,
        port=port,
        clients=CLIENTS,
        batch=BATCH,
        target_submissions=TARGET,
        seed=1,
    )
    report = await run_load(
        config, platform=PLATFORM, plan=smoke_plan(TARGET), perf=WallClock()
    )
    await app.drain()
    audit = check_gateway(app.gateway, expect_quiesced=True)
    doc = report.to_dict()
    gate = {
        "submits": report.submits,
        "p99_s": percentile(report.submit_latencies, 99.0),
        "transport_errors": report.transport_errors,
        "http_errors": report.http_errors,
        "invariants_ok": audit.ok,
        "violations": list(audit.violations),
    }
    return doc, gate


def test_smoke_sustains_min_submits(results_dir):
    # The latency gate measures the service, not the instrumentation:
    # shadow the suite-wide telemetry capture (its per-submission event
    # cost is gated separately by bench_obs_overhead).
    with use_telemetry(NullTelemetry()):
        loadgen_doc, gate = asyncio.run(_smoke())
        restart = asyncio.run(_restart_phase(results_dir))

    (results_dir / "LOADGEN_serve.json").write_text(
        json.dumps(loadgen_doc, indent=2, sort_keys=True) + "\n"
    )
    bench = {
        "kind": "bench-serve",
        "version": 1,
        "min_submits": MIN_SUBMITS,
        "p99_budget_s": P99_BUDGET_S,
        "smoke": {**gate, "loadgen": "LOADGEN_serve.json"},
        "restart": restart,
    }
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        "serve smoke:",
        f"  submits          {gate['submits']} (gate >= {MIN_SUBMITS})",
        f"  p99 latency      {gate['p99_s'] * 1000:.1f} ms (budget {P99_BUDGET_S * 1000:.0f} ms)",
        f"  p50 latency      {loadgen_doc['latency']['p50'] * 1000:.1f} ms",
        f"  throughput       {loadgen_doc['submits_per_second']:.0f} submits/s",
        f"  accept rate      {loadgen_doc['accept_rate']:.3f}",
        f"  invalid entries  {loadgen_doc['invalid']}",
        "restart:",
        f"  decisions        {restart['decisions']}",
        f"  snapshot equal   {restart['snapshot_equal']}",
        f"  decision equal   {restart['decision_equivalent']}",
        f"  invariants ok    {restart['invariants_ok']}",
    ]
    (results_dir / "BENCH_serve.txt").write_text("\n".join(lines) + "\n")

    assert gate["transport_errors"] == 0, gate
    assert gate["http_errors"] == 0, gate
    assert gate["invariants_ok"], gate["violations"]
    assert gate["submits"] >= MIN_SUBMITS, (
        f"smoke decided {gate['submits']} submissions; the CI gate is {MIN_SUBMITS} "
        "(see BENCH_serve.json)"
    )
    assert gate["p99_s"] <= P99_BUDGET_S, (
        f"p99 admission latency {gate['p99_s']:.3f}s over the {P99_BUDGET_S}s budget"
    )
    assert restart["snapshot_equal"], restart
    assert restart["decision_equivalent"], restart
    assert restart["invariants_ok"], restart["violations"]


RESTART_WAVES = 32
RESTART_WAVE_SIZE = 64


async def _restart_phase(results_dir) -> dict:
    """Journaled waves → drain → replayed successor; equivalence checked."""
    journal_path = results_dir / "serve.journal.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    plan = smoke_plan(RESTART_WAVES * RESTART_WAVE_SIZE)
    config = serve_config(journal_path=journal_path, max_wave=RESTART_WAVE_SIZE)
    app = ServeApp(config, clock=LogicalClock())
    host, port = await app.start()
    client = ServiceClient(host, port)
    await client.connect()
    outcomes: list[str] = []
    for wave in range(RESTART_WAVES):
        bodies = [
            plan.body(wave * RESTART_WAVE_SIZE + k) for k in range(RESTART_WAVE_SIZE)
        ]
        resp = await client.request(
            "POST", "/v1/reservations/batch", payload={"submissions": bodies}
        )
        assert resp.status == 200, resp.body
        outcomes.extend(d["outcome"] for d in resp.json()["decisions"])
    await client.close()
    await app.drain()
    snapshot = app.gateway.snapshot()

    # Uninterrupted in-process reference: identical waves, one instant each.
    reference = Gateway(PLATFORM, num_shards=4, batch_size=8)
    position = 0
    for wave in range(RESTART_WAVES):
        fields, ats = [], []
        for _ in range(RESTART_WAVE_SIZE):
            entry = plan.body(position)
            position += 1
            ats.append(entry.pop("at"))
            entry["client"] = "anonymous"
            fields.append(entry)
        reference.submit_many(fields, now=max(ats))
    expected = [
        "accepted" if reference.get(rid).confirmed else "rejected"
        for rid in range(len(outcomes))
    ]

    successor = ServeApp(serve_config(journal_path=journal_path), clock=LogicalClock())
    audit = check_gateway(
        successor.gateway, journal=successor.journal, expect_quiesced=True
    )
    return {
        "decisions": len(outcomes),
        "snapshot_equal": successor.snapshot() == snapshot,
        "decision_equivalent": outcomes == expected,
        "invariants_ok": audit.ok,
        "violations": list(audit.violations),
    }
