"""Property tests of the gateway's shard and batch knobs.

1. **Shard / batch sweep** — under FIFO the knobs change *where* an
   admission is decided, never *what*: every decision and every journal
   byte below the header is the unsharded, unbatched run's — on a uniform
   platform and on one with unequal capacities and degraded ports.
2. **No overcommit under sharding** — for 2/4/8 shards, under port
   faults, broker crashes, and random mid-flight aborts, no port's
   committed usage ever exceeds its capacity (Eq. 1 per shard slice).
"""

import numpy as np
import pytest

from repro.control import BrokerCrash, PortFault, run_fault_drill
from repro.core.booking import RejectReason
from repro.core.ledger import CAPACITY_SLACK
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import Gateway, Journal

PORTS = 5
CAP = 1000.0


def wave_workload():
    """Eight concurrent arrivals per instant, an instant every 30 s, 16 ports
    (the stream ``benchmarks/bench_chaos.py`` drives: 256 of 320 accepted)."""
    rng = np.random.default_rng(0)
    submissions = []
    for wave in range(40):
        for _ in range(8):
            window = float(rng.uniform(200.0, 900.0))
            submissions.append(
                {
                    "ingress": int(rng.integers(16)),
                    "egress": int(rng.integers(16)),
                    "volume": min(float(rng.uniform(10_000.0, 120_000.0)), 0.8 * CAP * window),
                    "deadline": wave * 30.0 + window,
                    "now": wave * 30.0,
                }
            )
    return submissions


UNIFORM = (Platform.uniform(16, 16, CAP), {})
#: Unequal capacities on the two sides of most pairs, and a capacity cut at
#: the opening of four waves: (wave, side, port, amount).
UNEVEN_DEGRADED = (
    Platform(
        [CAP if p % 3 else 0.4 * CAP for p in range(16)],
        [0.7 * CAP + 40.0 * p for p in range(16)],
    ),
    {
        3: ("ingress", 1, 600.0),
        9: ("egress", 3, 500.0),
        15: ("ingress", 6, 300.0),
        22: ("egress", 12, 900.0),
    },
)


def run_waves(shards, batch, world=UNIFORM):
    """``(decisions, journal below its header, stats)`` of one configuration."""
    platform, cuts = world
    gateway = Gateway(platform, num_shards=shards, batch_size=batch, journal=Journal())
    for k, fields in enumerate(wave_workload()):
        if k % 8 == 0 and k // 8 in cuts:
            side, port, amount = cuts[k // 8]
            now = fields["now"]
            gateway.degrade(
                side=side, port=port, amount=amount, start=now, end=now + 400.0, now=now
            )
        gateway.submit(**fields)
    gateway.drain(gateway.now)
    assert gateway.pending() == 0
    decisions = [
        (r.rid, r.confirmed, r.allocation and r.allocation.to_dict(), r.reject_reason)
        for r in gateway.reservations()
    ]
    return decisions, gateway.journal.to_jsonl().split("\n", 1)[1], gateway.stats


def test_shard_and_batch_sweep_never_changes_a_decision_or_a_journal_byte():
    for world in (UNIFORM, UNEVEN_DEGRADED):
        decisions, journal, stats = run_waves(1, 1, world)
        assert len(decisions) == 320
        assert 0 < stats.accepted < 320 and stats.fastpath_hits > 0  # not vacuous
        assert (stats.displaced > 0) == bool(world[1])
        for shards in (1, 2, 4, 8):
            for batch in (1, 4, 8):
                swept, swept_journal, swept_stats = run_waves(shards, batch, world)
                assert swept == decisions, (shards, batch)
                assert swept_journal == journal, (shards, batch)
                assert (swept_stats.cross_shard > 0) == (shards > 1)
                assert swept_stats.twophase_aborts == 0


def test_degraded_port_of_an_unequal_pair_decides_alike_on_every_plane():
    """The slack of Eq. 1 is the port's own.  A request 5e-9 (relative) over
    what a degraded 100 MB/s port has left sits inside ``1000 · ε`` of its
    peer and outside its own ``100 · ε``: the search and the placement
    used to read it differently, so one shard accepted what two refused
    after a two-phase abort.  The single-ledger service refused it
    ``ingress-full``."""
    platform = Platform([100.0] * 4, [1000.0] * 4)
    cut = {"side": "ingress", "port": 0, "amount": 50.0, "start": 0.0, "end": 1000.0, "now": 0.0}
    volume = (50.0 + 5e-7) * 100.0
    ask = {"ingress": 0, "egress": 1, "volume": volume, "deadline": 100.0, "now": 0.0}
    for shards in (1, 2, 4):
        gateway = Gateway(platform, num_shards=shards)
        gateway.degrade(**cut)
        ticket = gateway.submit(**ask)
        gateway.drain(0.0)
        assert (ticket.confirmed, ticket.reject_reason) == (False, RejectReason.INGRESS_FULL)
        assert gateway.stats.twophase_aborts == 0


class TestShardedNoOvercommit:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_no_capacity_violation_under_faults(self, shards):
        rng = np.random.default_rng(shards)
        n_ports = 8
        requests = []
        for rid in range(120):
            t0 = float(rng.uniform(0.0, 500.0))
            window = float(rng.uniform(60.0, 600.0))
            requests.append(
                Request(
                    rid=rid,
                    ingress=int(rng.integers(n_ports)),
                    egress=int(rng.integers(n_ports)),
                    volume=min(float(rng.uniform(5_000.0, 80_000.0)), 0.9 * CAP * window),
                    t_start=t0,
                    t_end=t0 + window,
                    max_rate=CAP,
                )
            )
        gw = Gateway(Platform.uniform(n_ports, n_ports, CAP), num_shards=shards, batch_size=4)
        run_fault_drill(
            gw,
            requests,
            abort_rate=0.1,
            faults=[
                PortFault(side="ingress", port=1, amount=600.0, start=100.0, end=300.0),
                PortFault(side="egress", port=3, amount=CAP, start=200.0, end=260.0),
            ],
            crashes=[
                BrokerCrash(shard=0, at=150.0, restart_at=220.0),
                BrokerCrash(shard=shards - 1, at=400.0),
            ],
            seed=shards * 7,
        )
        assert gw.stats.accepted > 0
        # Eq. 1 on every shard slice, degradations included.
        assert gw.max_overcommit() <= CAPACITY_SLACK * CAP
        # No transaction left half-done: every hold committed or aborted.
        for broker in gw.brokers:
            assert broker.holds() == []
