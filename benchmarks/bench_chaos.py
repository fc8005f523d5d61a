"""Chaos-plane equivalence gate and lossy-mesh degradation report.

Two claims the chaos plane makes, both checked here:

1. **A zero policy injects nothing.**  A gateway built with an all-zero
   :class:`~repro.gateway.rpc.ChaosPolicy` runs the two-phase protocol
   through the channels; a gateway with no policy books directly.  On
   the wave workload below the two must make the same decisions and
   reach the same reservations, slices, holds, stats and journal bytes —
   only the brokers' protocol records (``resolved`` / ``prepared``)
   exist solely where the protocol ran.  Any other drift is a
   regression.

2. **Lossy meshes degrade, they don't corrupt.**  A sweep over drop
   rates × seeds records accept rate, re-admissions, and simulated
   seconds burned waiting on lost deliveries; every cell must finish
   invariant-clean (no overcommit, no zombie holds, replayable journal
   implied by the drill's own checks).  The accept rate may fall as the
   mesh gets lossier — that is the *point* of degraded-mode admission —
   but bookings never outrun confirmed reservations.

A scaled-down chaos matrix (seeds × all five canned scenarios) also runs
here so a plain benchmark invocation leaves a ``CHAOS_matrix.json``
artifact; CI runs the full-size matrix via ``tests/test_chaos.py``.

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
from repro.gateway import ChaosPolicy, Gateway, Journal, check_gateway
from repro.gateway.rpc import EdgeChaos
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


def run_waves(submissions, chaos):
    gateway = Gateway(
        Platform.uniform(PORTS, PORTS, CAP),
        num_shards=SHARDS,
        batch_size=BATCH,
        chaos=chaos,
        journal=Journal(),
    )
    for sub in submissions:
        gateway.submit(**sub)
    gateway.drain(submissions[-1]["now"])
    assert gateway.pending() == 0
    return gateway


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


def shared_state(gateway):
    """What a direct-booking and a protocol gateway must agree on: the
    snapshot minus the brokers' protocol records (``resolved`` /
    ``prepared`` exist only where the protocol ran) and the journal below
    its header (which names the policy)."""
    snapshot = gateway.snapshot()
    snapshot["shards"] = [
        {k: v for k, v in shard.items() if k not in ("resolved", "prepared")}
        for shard in snapshot["shards"]
    ]
    return snapshot, gateway.journal.to_jsonl().split("\n", 1)[1]


def test_disabled_chaos_plane_is_free(results_dir):
    submissions = wave_workload()
    plain = run_waves(submissions, chaos=None)
    gated = run_waves(submissions, chaos=ChaosPolicy(seed=0))

    # Same decisions, reservations, slices, holds, stats and journal bytes.
    assert shared_state(gated) == shared_state(plain)
    assert gated.stats.as_dict() == plain.stats.as_dict()
    assert gated.stats.chaos_drops == 0 and gated.stats.chaos_wait_total == 0.0
    assert all(not b.resolutions() for b in plain.brokers)
    assert any(b.resolutions() for b in gated.brokers)

    sweep = [run_lossy_cell(drop, seed) for drop in DROP_RATES for seed in SWEEP_SEEDS]

    lines = [
        f"zero-policy protocol vs direct booking: {plain.stats.accepted + plain.stats.rejected} "
        "decisions, state, stats and journal identical",
        "",
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
        json.dumps(
            {
                "decisions_identical": True,
                "lossy_sweep": sweep,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_chaos_matrix_smoke(results_dir):
    report = run_chaos_matrix(
        Platform.uniform(8, 8, 200.0),
        lambda seed: lossy_workload(seed, n=24, ports=8),
        seeds=MATRIX_SEEDS,
        num_shards=SHARDS,
        batch_size=BATCH,
        hold_ttl=60.0,
        rpc_deadline=60.0,
        horizon=400.0,
        tracing=True,
        flight_dir=results_dir / "flight",
    )
    (results_dir / "CHAOS_matrix.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    # Every cell's causal trace, one artifact: `grid-obs explain <rid>
    # CHAOS_trace.json` reconstructs any request in any cell after the run.
    assert report.telemetry is not None
    report.telemetry.save(results_dir / "CHAOS_trace.json")
    assert report.ok, report.violations
    assert report.slo_ok, [c["slo"] for c in report.cells if not c["slo"]["ok"]]
    # Invariant-clean cells leave no flight dumps behind.
    assert report.flight_paths == []
