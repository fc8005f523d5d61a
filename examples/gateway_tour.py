#!/usr/bin/env python3
"""Tour of the sharded admission gateway (`repro.gateway`).

The monolithic reservation service funnels every admission through one
ledger; the gateway shards that state across per-access-point brokers
(the paper's Eq. 1 is per-port, so it partitions cleanly) and batches
concurrent arrivals.  This tour runs the whole serving layer on the
discrete-event engine:

1. a 4-shard gateway with min-laxity batching, per-client edge limits,
   and a journal recording every operation;
2. twelve waves of grid traffic from three sites — plus one greedy
   client whose burst overdraws its edge token bucket and is refused
   before ever reaching a broker;
3. a periodic monitor (``sim.every``) sampling admission progress;
4. shard broker 1 crashes mid-run — volatile prepare-holds are wiped,
   requests routed at it bounce with ``broker-unavailable`` — then
   restarts with its committed bookings intact;
5. a port degradation displaces the latest-starting reservations that
   no longer fit;
6. the gateway "crashes"; replaying the journal rebuilds the exact
   state, brokers and batches included.

Run:  python examples/gateway_tour.py
"""

import random

from repro.control import Journal
from repro.core import Platform
from repro.gateway import EdgeLimit, Gateway
from repro.sim.engine import Simulator

PORTS, CAP = 8, 1000.0
WAVES, WAVE_SIZE, WAVE_GAP = 12, 8, 60.0
HORIZON = WAVES * WAVE_GAP

rng = random.Random(7)

journal = Journal()
gateway = Gateway(
    Platform.uniform(PORTS, PORTS, CAP),
    num_shards=4,
    batch_size=WAVE_SIZE,
    ordering="min-laxity",
    edge=EdgeLimit(rate=8_000.0, burst=500_000.0),
    journal=journal,
)

print("A 4-shard gateway on an 8x8 platform (1 GB/s ports):")
for broker in gateway.brokers:
    ins, outs = gateway.shard_map.ports_of(broker.shard_id)
    print(f"  shard {broker.shard_id}: ingress {ins}, egress {outs}")

# --- the workload -----------------------------------------------------
sim = Simulator()


def arrive(event):
    client, ingress, egress, volume, window = event.payload
    gateway.submit(
        ingress=ingress,
        egress=egress,
        volume=volume,
        deadline=sim.now + window,
        now=sim.now,
        client=client,
    )


for wave in range(WAVES):
    for _ in range(WAVE_SIZE):
        window = rng.uniform(200.0, 900.0)
        payload = (
            rng.choice(["cms", "atlas", "alice"]),
            rng.randrange(PORTS),
            rng.randrange(PORTS),
            min(rng.uniform(10_000.0, 120_000.0), 0.8 * CAP * window),
            window,
        )
        sim.at(wave * WAVE_GAP, arrive, payload=payload)

# One greedy site bursts five 200 GB submissions in a single instant —
# its 500 GB edge bucket admits two and refuses three at the door.
for _ in range(5):
    sim.at(0.0, arrive, payload=("greedy", 0, 1, 200_000.0, 800.0))


def monitor(event):
    s = gateway.stats
    print(
        f"  t={sim.now:5.0f}  accepted={s.accepted:3d} rejected={s.rejected:2d} "
        f"edge_refused={s.edge_refused} pending={gateway.pending()} "
        f"batches={s.batches}"
    )


sim.every(2 * WAVE_GAP, monitor, start=WAVE_GAP)

# --- a broker outage mid-run (priority 1: after that instant's arrivals,
# so queued submissions face the dead broker when their batch decides) --
CRASH_SHARD, CRASH_AT, RESTART_AT = 1, 4 * WAVE_GAP, 6 * WAVE_GAP


def crash(event):
    wiped = gateway.crash_broker(CRASH_SHARD, now=sim.now)
    print(f"  t={sim.now:5.0f}  ** shard {CRASH_SHARD} crashed ({wiped} holds wiped)")


def restart(event):
    gateway.restart_broker(CRASH_SHARD, now=sim.now)
    print(f"  t={sim.now:5.0f}  ** shard {CRASH_SHARD} restarted (commits intact)")


sim.at(CRASH_AT, crash, priority=1)
sim.at(RESTART_AT, restart)

print(f"\nRunning {WAVES} waves of {WAVE_SIZE} transfers ({HORIZON:.0f} s):")
sim.run(until=HORIZON)
gateway.drain(HORIZON)

s = gateway.stats
print("\nAdmission outcome:")
print(f"  accepted {s.accepted}, rejected {s.rejected} (of {s.submits} submitted)")
print(f"  local {s.local} / cross-shard {s.cross_shard} / fast path {s.fastpath_hits}")
print(f"  edge refusals: {s.edge_refused} (clients: {gateway.edge.clients()})")
print(f"  prepare retries {s.prepare_retries}, two-phase aborts {s.twophase_aborts}")

# --- a port fault: degrade and displace -------------------------------
victim = max(
    (r for r in gateway.reservations() if r.confirmed and r.allocation.tau > HORIZON),
    key=lambda r: r.allocation.tau,
)
port = victim.request.egress
displaced = gateway.degrade(
    side="egress",
    port=port,
    amount=0.8 * CAP,
    start=HORIZON,
    end=HORIZON + 600.0,
    now=HORIZON,
)
print(f"\nEgress {port} loses 800 MB/s for 10 min: displaced {len(displaced)} "
      f"reservation(s) {[r.rid for r in displaced]} (latest-start-first)")
print(f"  worst slice usage minus capacity: {gateway.max_overcommit():+.1f} MB/s "
      "(<= 0 everywhere: Eq. 1 still holds)")

# --- crash recovery from the journal ----------------------------------
rebuilt = Gateway.replay(journal)
assert rebuilt.snapshot() == gateway.snapshot()
print(f"\nReplayed {sum(1 for _ in journal)} journal records -> "
      "snapshot-identical gateway (brokers, batches, stats and all).")
