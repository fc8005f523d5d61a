#!/usr/bin/env python3
"""Tour of the gateway's chaos plane (`repro.gateway.rpc`).

Every coordinator→broker call travels through a per-edge `Channel`.
With no `ChaosPolicy` the channel is a pure pass-through; with one, the
mesh turns hostile — deterministically, from a seed.  This tour drills
the admission gateway through four weathers and audits each with the
invariant checker (`repro.gateway.check_gateway`):

1. a **lossy mesh** — requests and replies vanish; retries, the rpc
   deadline, and the 2PC termination probe (was the reply lost *after*
   the broker committed?) keep admissions and bookings reconciled;
2. a **duplicate storm** — every delivery may arrive twice; idempotency
   keys make the second arrival a harmless replay;
3. a **partition** — one shard drops off the mesh for a while; its
   requests reject `shard-unreachable`, park in the re-admission
   backlog, and are re-offered when the partition heals;
4. the **chaos matrix** — seeds × canned scenarios, every cell drained
   to quiescence and invariant-audited (the CI gate).

Run:  python examples/chaos_tour.py
"""

import random

from repro.control import run_chaos_matrix
from repro.core import Platform
from repro.gateway import ChaosPolicy, Gateway, Journal, check_gateway
from repro.gateway.rpc import EdgeChaos, Partition
from repro.schedulers.retry import BackoffSchedule

PORTS, CAP = 8, 400.0
N, HORIZON = 30, 400.0


def workload(seed):
    """A seeded mixed local/cross-shard submission stream."""
    rng = random.Random(seed)
    subs = []
    for _ in range(N):
        t0 = rng.uniform(0.0, HORIZON)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        subs.append(
            {
                "ingress": rng.randrange(PORTS),
                "egress": rng.randrange(PORTS),
                "volume": rng.uniform(0.2, 0.8) * rate * duration,
                "deadline": t0 + duration,
                "now": t0,
                "max_rate": rate,
            }
        )
    subs.sort(key=lambda s: s["now"])
    return subs


def drill(title, chaos, **kwargs):
    """Run one weather over the standard workload; audit; report."""
    gw = Gateway(
        Platform.uniform(PORTS, PORTS, CAP),
        num_shards=4,
        batch_size=4,
        chaos=chaos,
        hold_ttl=60.0,
        **kwargs,
    )
    for sub in workload(seed=7):
        gw.submit(**sub)
    for _ in range(8):  # drain past every deadline and hold TTL
        gw.drain(gw.now + 61.0)
        if gw.now > HORIZON + 200.0 and not any(b.holds() for b in gw.brokers):
            break
    report = check_gateway(gw, now=gw.now, expect_quiesced=True)
    s = gw.stats
    print(f"\n{title}")
    print(f"  accepted {s.accepted} / rejected {s.rejected} "
          f"(shard-unreachable {s.shard_unreachable})")
    print(f"  chaos: {s.chaos_drops} drops, {s.chaos_duplicates} duplicates, "
          f"{s.chaos_partitioned} partitioned, {s.chaos_wait_total:.0f} s waited")
    print(f"  recovered (reply-lost, probe resolved) {s.recovered_deliveries}, "
          f"stranded holds TTL-swept {s.stranded_holds}, "
          f"backlog re-admitted {s.readmitted}")
    print(f"  invariants: {'CLEAN' if report.ok else report.violations}")
    return gw


print("One workload (30 transfers, 8x8 ports), four weathers:")

# --- 1. clean control -------------------------------------------------
drill("[clean] no chaos — the channel layer is a pass-through", chaos=None)

# --- 2. lossy mesh ----------------------------------------------------
drill(
    "[lossy] 30% of deliveries vanish (half before, half after execution)",
    chaos=ChaosPolicy(seed=3, default=EdgeChaos(drop=0.3, delay=0.2)),
    backoff=BackoffSchedule(base=1.0, multiplier=1.5, max_attempts=5),
    rpc_deadline=120.0,
)

# --- 3. duplicate storm -----------------------------------------------
drill(
    "[duplicate-storm] 60% of deliveries arrive twice (idempotency keys replay)",
    chaos=ChaosPolicy(seed=3, default=EdgeChaos(duplicate=0.6)),
)

# --- 4. partition with backlog re-admission ---------------------------
drill(
    "[partition] shard 1 unreachable over [100, 250) s; backlog re-offers after heal",
    chaos=ChaosPolicy(seed=3, partitions=(Partition(shard=1, start=100.0, end=250.0),)),
    backoff=BackoffSchedule(base=1.0, multiplier=2.0, max_attempts=3),
    rpc_deadline=60.0,
    backlog_limit=8,
)

# --- 5. the chaos matrix (the CI gate, scaled down) -------------------
print("\n[matrix] 2 seeds x 5 scenarios, every cell invariant-audited:")


def requests_for(seed):
    from repro.core import Request

    rng = random.Random(seed)
    out = []
    for rid in range(24):
        t0 = rng.uniform(0.0, HORIZON)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        out.append(
            Request(
                rid=rid,
                ingress=rng.randrange(PORTS),
                egress=rng.randrange(PORTS),
                volume=rng.uniform(0.2, 0.8) * rate * duration,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    return out


matrix = run_chaos_matrix(
    Platform.uniform(PORTS, PORTS, CAP),
    requests_for,
    seeds=(0, 1),
    num_shards=4,
    hold_ttl=60.0,
    rpc_deadline=60.0,
    horizon=HORIZON,
)
for cell in matrix.cells:
    print(f"  seed={cell['seed']} {cell['scenario']:>15}: "
          f"accepted {cell['accepted']:2d}, drops {cell['chaos_drops']:3d}, "
          f"readmitted {cell['readmitted']}, "
          f"{'clean' if cell['invariants']['ok'] else 'VIOLATED'}")
assert matrix.ok, matrix.violations
print("  -> every cell clean: no overcommit, no zombie holds, ledgers reconciled.")

# --- replay convergence under chaos -----------------------------------
journal = Journal()
gw = Gateway(
    Platform.uniform(PORTS, PORTS, CAP),
    num_shards=4,
    batch_size=4,
    chaos=ChaosPolicy(seed=11, default=EdgeChaos(drop=0.2, duplicate=0.2)),
    journal=journal,
)
for sub in workload(seed=5):
    gw.submit(**sub)
gw.drain(HORIZON + 300.0)
rebuilt = Gateway.replay(journal)
assert rebuilt.snapshot() == gw.snapshot()
print(f"\nReplayed {sum(1 for _ in journal)} journal records under chaos "
      "(the header pins the ChaosPolicy) -> snapshot-identical gateway.")
