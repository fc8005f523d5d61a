"""Property tests anchoring the gateway to the monolithic service.

Two guarantees the gateway design leans on:

1. **Single-shard equivalence** — a ``Gateway(num_shards=1,
   batch_size=1, ordering="fifo")`` is decision-for-decision identical to
   :class:`~repro.control.service.ReservationService`: same accepts, same
   allocations (σ, τ, bw), same :class:`RejectReason` on rejects, same
   displacement victims, across interleaved submits / cancels / aborts /
   degradations.  The headroom fast path must be invisible here.
2. **No overcommit under sharding** — for 2/4/8 shards, under port
   faults, broker crashes, and random mid-flight aborts, no port's
   committed usage ever exceeds its capacity (Eq. 1 per shard slice).

And one the shard / batch knobs lean on: under FIFO they change *where* an
admission is decided, never *what* — every decision and every journal
byte below the header is the unsharded, unbatched run's — on a uniform
platform and on one with unequal capacities and degraded ports.
"""

import numpy as np
import pytest

from repro.control import BrokerCrash, PortFault, run_gateway_fault_drill
from repro.control.journal import Journal
from repro.control.service import ReservationService
from repro.core.ledger import CAPACITY_SLACK
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import Gateway

PORTS = 5
CAP = 1000.0


def workload(seed, n=80, horizon=400.0):
    """A mixed op stream: (kind, payload) tuples in time order.

    Sized so the platform saturates part-way through — the stream must
    produce real rejections (each reason is asserted seen at least once
    across the seeds) as well as accepts, cancels, aborts, and degrades.
    """
    rng = np.random.default_rng(seed)
    ops = []
    t = 0.0
    live_guess = []
    for i in range(n):
        t += float(rng.exponential(horizon / n))
        kind = rng.random()
        if kind < 0.70 or not live_guess:
            window = float(rng.uniform(40.0, 500.0))
            # Keep the request structurally valid (MinRate <= CAP) while
            # loading the platform enough to force capacity rejections.
            volume = min(float(rng.uniform(2_000.0, 60_000.0)), 0.9 * CAP * window)
            ops.append(
                (
                    "submit",
                    {
                        "ingress": int(rng.integers(PORTS)),
                        "egress": int(rng.integers(PORTS)),
                        "volume": volume,
                        "deadline": t + window,
                        "now": t,
                        # Sometimes cap the rate so MINRATE_EXCEEDS_MAXRATE
                        # shows up at candidate starts late in the window.
                        "max_rate": float(rng.choice([CAP, volume / window * 1.5])),
                    },
                )
            )
            live_guess.append(len([o for o in ops if o[0] == "submit"]) - 1)
        elif kind < 0.80:
            ops.append(("cancel", {"rid": int(rng.choice(live_guess)), "now": t}))
        elif kind < 0.90:
            ops.append(("abort", {"rid": int(rng.choice(live_guess)), "now": t}))
        else:
            ops.append(
                (
                    "degrade",
                    {
                        "side": str(rng.choice(["ingress", "egress"])),
                        "port": int(rng.integers(PORTS)),
                        "amount": float(rng.uniform(200.0, 900.0)),
                        "start": t,
                        "end": t + float(rng.uniform(30.0, 200.0)),
                        "now": t,
                    },
                )
            )
    return ops


def run_pair(seed):
    """Drive the same op stream through both front-ends; compare as we go."""
    service = ReservationService(Platform.uniform(PORTS, PORTS, CAP))
    gateway = Gateway(Platform.uniform(PORTS, PORTS, CAP), num_shards=1, batch_size=1)
    reasons = set()
    decisions = 0
    for kind, args in workload(seed):
        if kind == "submit":
            rs = service.submit(**args)
            tg = gateway.submit(**args)
            rg = tg
            assert tg.decided, "batch_size=1 must decide at submit"
            assert rg.rid == rs.rid
            assert rg.confirmed == rs.confirmed, (
                f"seed {seed} rid {rs.rid}: service={rs.confirmed} gateway={rg.confirmed}"
            )
            if rs.confirmed:
                assert rg.allocation.sigma == pytest.approx(rs.allocation.sigma, abs=1e-9)
                assert rg.allocation.tau == pytest.approx(rs.allocation.tau, abs=1e-9)
                assert rg.allocation.bw == pytest.approx(rs.allocation.bw, abs=1e-9)
            else:
                assert rg.reject_reason == rs.reject_reason, (
                    f"seed {seed} rid {rs.rid}: "
                    f"service={rs.reject_reason} gateway={rg.reject_reason}"
                )
                reasons.add(rs.reject_reason)
            decisions += 1
        elif kind == "cancel":
            assert gateway.cancel(args["rid"], now=args["now"]) == service.cancel(
                args["rid"], now=args["now"]
            )
        elif kind == "abort":
            assert gateway.abort(args["rid"], now=args["now"]) == service.abort(
                args["rid"], now=args["now"]
            )
        else:
            ds = service.degrade(**args)
            dg = gateway.degrade(**args)
            assert [r.rid for r in dg] == [r.rid for r in ds]
    # Terminal ledger agreement: identical usage on every port over time.
    finish = max(
        (r.allocation.tau for r in service.reservations() if r.allocation), default=0.0
    )
    for t in np.linspace(0.0, finish + 1.0, 37):
        ins_g, outs_g = gateway.port_usage(float(t))
        for port in range(PORTS):
            assert ins_g[port] == pytest.approx(
                service.port_usage(float(t))[0][port], abs=1e-6
            )
            assert outs_g[port] == pytest.approx(
                service.port_usage(float(t))[1][port], abs=1e-6
            )
    return decisions, reasons


class TestSingleShardEquivalence:
    SEEDS = (101, 202, 303, 404)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_decision_for_decision(self, seed):
        decisions, _ = run_pair(seed)
        assert decisions >= 40

    def test_workloads_exercise_accepts_and_reject_reasons(self):
        """The equivalence claim is vacuous unless rejects actually occur."""
        seen = set()
        for seed in self.SEEDS:
            _, reasons = run_pair(seed)
            seen |= {r.value for r in reasons}
        assert "ingress-full" in seen or "egress-full" in seen
        assert len(seen) >= 2, f"workloads too easy, only saw: {seen}"

    def test_fastpath_engages_but_stays_invisible(self):
        """The headroom index must answer some decisions — and test_decision_
        for_decision above proves those answers match the full search."""
        gw = Gateway(Platform.uniform(PORTS, PORTS, CAP), num_shards=1, batch_size=1)
        for kind, args in workload(self.SEEDS[0]):
            if kind == "submit":
                gw.submit(**args)
        assert gw.stats.fastpath_hits > 0


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
    after a two-phase abort."""
    platform = Platform([100.0] * 4, [1000.0] * 4)
    cut = {"side": "ingress", "port": 0, "amount": 50.0, "start": 0.0, "end": 1000.0, "now": 0.0}
    volume = (50.0 + 5e-7) * 100.0
    ask = {"ingress": 0, "egress": 1, "volume": volume, "deadline": 100.0, "now": 0.0}
    service = ReservationService(platform)
    service.degrade(**cut)
    expected = service.submit(**ask)
    assert not expected.confirmed
    for shards in (1, 2, 4):
        gateway = Gateway(platform, num_shards=shards)
        gateway.degrade(**cut)
        ticket = gateway.submit(**ask)
        gateway.drain(0.0)
        assert (ticket.confirmed, ticket.reject_reason) == (False, expected.reject_reason)
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
        report = run_gateway_fault_drill(
            Platform.uniform(n_ports, n_ports, CAP),
            requests,
            num_shards=shards,
            batch_size=4,
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
        gw = report.gateway
        assert gw.stats.accepted > 0
        # Eq. 1 on every shard slice, degradations included.
        assert gw.max_overcommit() <= CAPACITY_SLACK * CAP
        # No transaction left half-done: every hold committed or aborted.
        for broker in gw.brokers:
            assert broker.holds() == []
