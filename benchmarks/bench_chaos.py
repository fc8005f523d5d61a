"""Chaos plane: lossy meshes degrade, they don't corrupt.

A sweep over drop rates × seeds records accept rate, re-admissions, and
simulated seconds burned waiting on lost deliveries; every cell must
finish invariant-clean (no overcommit, no zombie holds, replayable
journal implied by the drill's own checks).  The accept rate may fall as
the mesh gets lossier — that is the *point* of degraded-mode admission —
but bookings never outrun confirmed reservations.

A scaled-down chaos matrix (seeds × all five canned scenarios) also runs
here so a plain benchmark invocation leaves a ``CHAOS_matrix.json``
artifact, and the offline replay of its saved trace must give every cell
its live SLO verdict; CI runs the full-size matrix via ``tests/test_chaos.py``.
That an all-zero policy (the two-phase protocol, no faults) decides as
the direct path does is ``tests/test_direct_booking.py``'s differential.

Results land in ``benchmarks/results/BENCH_chaos.{json,txt}`` and
``benchmarks/results/CHAOS_matrix.json`` (uploaded as CI artifacts).
"""

from __future__ import annotations

import json
import random

import numpy as np

from repro.control.faults import run_chaos_matrix
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import ChaosPolicy, Gateway, check_gateway
from repro.gateway.rpc import EdgeChaos
from repro.obs.causal import iter_captures
from repro.obs.slo import SloRule, evaluate_artifact
from repro.schedulers.retry import BackoffSchedule

PORTS = 16
CAP = 1000.0
WAVES = 40
WAVE_SIZE = 8
SHARDS = 4
BATCH = 4
DROP_RATES = (0.0, 0.2, 0.4, 0.6)
SWEEP_SEEDS = (0, 1, 2)
MATRIX_SEEDS = (0, 1)


def wave_workload(seed=0):
    """Submissions in waves: WAVE_SIZE concurrent arrivals per instant
    (also ``bench_obs_overhead``'s workload; ``tests/test_gateway_equivalence.py``
    sweeps a copy over shards × batch sizes)."""
    rng = np.random.default_rng(seed)
    submissions = []
    for wave in range(WAVES):
        t = wave * 30.0
        for _ in range(WAVE_SIZE):
            window = float(rng.uniform(200.0, 900.0))
            submissions.append(
                {
                    "ingress": int(rng.integers(PORTS)),
                    "egress": int(rng.integers(PORTS)),
                    "volume": min(
                        float(rng.uniform(10_000.0, 120_000.0)), 0.8 * CAP * window
                    ),
                    "deadline": t + window,
                    "now": t,
                }
            )
    return submissions


def lossy_workload(seed, n=40, ports=PORTS, horizon=400.0):
    """Seeded mixed local/cross-shard requests for the degradation sweep."""
    rng = random.Random(seed)
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(ports),
                egress=rng.randrange(ports),
                volume=rng.uniform(0.2, 0.8) * rate * duration,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    requests.sort(key=lambda r: r.t_start)
    return requests


def run_lossy_cell(drop, seed):
    gateway = Gateway(
        Platform.uniform(PORTS, PORTS, CAP),
        num_shards=SHARDS,
        batch_size=BATCH,
        chaos=(
            ChaosPolicy(seed=seed, default=EdgeChaos(drop=drop)) if drop > 0.0 else None
        ),
        backoff=BackoffSchedule(base=1.0, multiplier=1.5, max_attempts=5),
        rpc_deadline=120.0,
        backlog_limit=8,
        hold_ttl=60.0,
    )
    requests = lossy_workload(seed)
    for request in requests:
        gateway.submit(
            ingress=request.ingress,
            egress=request.egress,
            volume=request.volume,
            deadline=request.t_end,
            now=request.t_start,
            max_rate=request.max_rate,
        )
    last = max(r.t_end for r in requests)
    for _ in range(8):
        gateway.drain(gateway.now + 61.0)
        if gateway.now > last and not any(b.holds() for b in gateway.brokers):
            break
    report = check_gateway(gateway, now=gateway.now, expect_quiesced=True)
    assert report.ok, report.violations
    stats = gateway.stats
    decided = stats.accepted + stats.rejected
    return {
        "drop": drop,
        "seed": seed,
        "decided": decided,
        "accepted": stats.accepted,
        "accept_rate": round(stats.accepted / decided, 4) if decided else 0.0,
        "shard_unreachable": stats.shard_unreachable,
        "readmitted": stats.readmitted,
        "recovered_deliveries": stats.recovered_deliveries,
        "compensations": stats.compensations,
        "stranded_holds": stats.stranded_holds,
        "chaos_drops": stats.chaos_drops,
        "chaos_wait": round(stats.chaos_wait_total, 1),
    }


def test_lossy_meshes_degrade_without_corrupting(results_dir):
    sweep = [run_lossy_cell(drop, seed) for drop in DROP_RATES for seed in SWEEP_SEEDS]

    lines = [
        f"{'drop':>5} {'seed':>4} {'accept%':>8} {'unreach':>7} "
        f"{'readmit':>7} {'recov':>5} {'wait':>8}",
    ]
    for row in sweep:
        lines.append(
            f"{row['drop']:>5.1f} {row['seed']:>4} {row['accept_rate'] * 100:>8.1f} "
            f"{row['shard_unreachable']:>7} {row['readmitted']:>7} "
            f"{row['recovered_deliveries']:>5} {row['chaos_wait']:>8.1f}"
        )
    (results_dir / "BENCH_chaos.txt").write_text("\n".join(lines) + "\n")
    (results_dir / "BENCH_chaos.json").write_text(
        json.dumps({"lossy_sweep": sweep}, indent=2, sort_keys=True) + "\n"
    )


def chaos_matrix(slo_rules=None):
    """The scaled-down traced matrix: :data:`MATRIX_SEEDS` x every scenario
    (``slo_rules=None``: each cell's default rules)."""
    return run_chaos_matrix(
        Platform.uniform(8, 8, 200.0),
        lambda seed: lossy_workload(seed, n=24, ports=8),
        seeds=MATRIX_SEEDS,
        num_shards=SHARDS,
        batch_size=BATCH,
        hold_ttl=60.0,
        rpc_deadline=60.0,
        horizon=400.0,
        tracing=True,
        slo_rules=slo_rules,
    )


def offline_mismatches(report, artifact):
    """Labels of the cells whose live SLO verdict differs from what
    ``grid-obs slo`` (``evaluate_artifact``) gives replaying that cell's
    capture in ``artifact`` under that cell's own rules."""
    captures = {entry["label"]: entry for entry in iter_captures(artifact)}
    wrong = []
    for cell in report.cells:
        label = f"seed={cell['seed']}/{cell['scenario']}"
        rules = [SloRule.from_dict(rule) for rule in cell["slo"]["rules"]]
        (offline,) = evaluate_artifact({"captures": [captures[label]]}, rules)["captures"]
        if offline != {"label": label, **cell["slo"]}:
            wrong.append(label)
    return wrong


def test_chaos_matrix_smoke(results_dir):
    report = chaos_matrix()
    (results_dir / "CHAOS_matrix.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    # Every cell's causal trace, one artifact: `grid-obs explain <rid>
    # CHAOS_trace.json` reconstructs any request in any cell after the run.
    assert report.telemetry is not None
    trace = results_dir / "CHAOS_trace.json"
    report.telemetry.save(trace)
    assert report.ok, report.violations
    assert report.slo_ok, [c["slo"] for c in report.cells if not c["slo"]["ok"]]
    # `grid-obs slo` on the saved trace gives every cell its live verdict.
    assert offline_mismatches(report, json.loads(trace.read_text())) == []
