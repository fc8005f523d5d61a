"""Direct booking: chaos-off admissions skip hold → prepare → commit.

With no :class:`ChaosPolicy` installed and both owning brokers up, the
coordinator books each owning broker once instead of running the
two-phase protocol.  An all-zero policy injects nothing but still runs
the protocol, so the pair (``chaos=None``, ``ChaosPolicy(seed=0)``) is
the differential oracle: same op stream in, same decisions, state and
journal out — only the brokers' protocol records differ.
"""

import random

import pytest

from repro.control.journal import Journal
from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, Gateway, check_gateway
from repro.schedulers.retry import BackoffSchedule

from .conftest import without_protocol_records

PORTS = 4
CAP = 100.0

#: Degradations registered before traffic, per scenario.
DEGRADED = {
    "clean": (),
    "ingress-degraded": (("ingress", 0),),
    "both-degraded": (("ingress", 0), ("egress", 1), ("egress", 2)),
}


def drive(gw, seed, mode, scenario, n=60):
    """One seeded submit / cancel / reshape / degrade stream into ``gw``."""
    rng = random.Random(seed)
    for side, port in DEGRADED[scenario]:
        gw.degrade(side=side, port=port, amount=30.0, start=20.0, end=90.0, now=0.0)
    t = 0.0
    tickets = []
    for _ in range(n):
        if rng.random() < 0.6:  # else: same instant, so batches really fill
            t += rng.uniform(0.2, 3.0)
        live = [
            ticket.rid
            for ticket in tickets
            if ticket.decided
            and ticket.confirmed
            and ticket.terminated_at is None
        ]
        roll = rng.random()
        if roll < 0.12 and live:
            gw.cancel(rng.choice(live), now=t)
        elif roll < 0.20 and live and gw.malleable:
            gw.reshape(rng.choice(live), now=t)
        elif roll < 0.25:
            gw.degrade(
                side=rng.choice(("ingress", "egress")),
                port=rng.randrange(PORTS),
                amount=rng.uniform(10.0, 40.0),
                start=t + rng.uniform(5.0, 30.0),
                end=t + rng.uniform(40.0, 80.0),
                now=t,
            )
        else:
            # Hot pair (0, 1) half the time, so capacity rejections — and
            # with them the shaped fallback — actually occur.
            hot = rng.random() < 0.5
            fields = dict(
                ingress=0 if hot else rng.randrange(PORTS),
                egress=1 if hot else rng.randrange(PORTS),
                now=t,
            )
            if mode == "profile" and rng.random() < 0.5:
                start = t + rng.uniform(0.0, 5.0)
                gap = rng.uniform(1.0, 5.0)
                r1, r2 = rng.uniform(5.0, 30.0), rng.uniform(5.0, 30.0)
                steps = [[start, start + 10.0, r1], [start + 10.0 + gap, start + 20.0 + gap, r2]]
                fields.update(volume=10.0 * (r1 + r2), deadline=start + 60.0 + gap, profile=steps)
            else:
                rate, window = rng.uniform(30.0, 100.0), rng.uniform(20.0, 60.0)
                fields.update(
                    volume=rng.uniform(0.3, 0.9) * rate * window, deadline=t + window, max_rate=rate
                )
            tickets.append(gw.submit(**fields))
    gw.drain(t + 1.0)
    return gw


def build(shards, mode, chaos, journal):
    return Gateway(
        Platform.uniform(PORTS, PORTS, CAP),
        num_shards=shards,
        batch_size=3,
        malleable=mode != "constant",
        chaos=chaos,
        journal=journal,
    )


def decisions(gw):
    return [
        (r.rid, r.terminated_at, r.reject_reason, r.allocation and r.allocation.segments())
        for r in gw.reservations()
    ]


@pytest.mark.parametrize("scenario", list(DEGRADED))
@pytest.mark.parametrize("mode", ["constant", "profile", "shaped"])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_direct_and_protocol_paths_agree(seed, shards, mode, scenario):
    direct = drive(build(shards, mode, None, Journal()), seed, mode, scenario)
    protocol = drive(build(shards, mode, ChaosPolicy(seed=0), Journal()), seed, mode, scenario)

    assert decisions(direct) == decisions(protocol)
    assert vars(direct.stats) == vars(protocol.stats)
    snap_direct, snap_protocol = direct.snapshot(), protocol.snapshot()
    assert without_protocol_records(snap_direct) == without_protocol_records(snap_protocol)
    assert all(s["resolved"] == {} and s["prepared"] == {} for s in snap_direct["shards"])
    # Same journal below the header (which names the policy).
    body_direct = direct.journal.to_jsonl().split("\n", 1)[1]
    assert body_direct == protocol.journal.to_jsonl().split("\n", 1)[1]
    for gw, snap in ((direct, snap_direct), (protocol, snap_protocol)):
        report = check_gateway(gw, journal=gw.journal, expect_quiesced=True)
        assert report.ok, report.violations
        assert Gateway.replay(gw.journal).snapshot() == snap


def test_the_streams_exercise_what_they_claim():
    """Guards the matrix above against going vacuous."""
    shaped = drive(build(4, "shaped", None, Journal()), 1, "shaped", "both-degraded")
    assert shaped.stats.accepted and shaped.stats.rejected and shaped.stats.cross_shard
    assert any(
        r.allocation is not None and r.allocation.profile is not None
        for r in shaped.reservations()
    ), "no shaped fallback fired"
    assert shaped.stats.cancelled and shaped.stats.degradations > 3
    assert shaped.stats.batches < shaped.stats.submits  # batches really fill
    explicit = drive(build(2, "profile", None, Journal()), 7, "profile", "clean")
    assert any("profile" in e.args for e in explicit.journal if e.op == "submit")


def test_crashed_broker_takes_the_protocol_path():
    """``chaos=None`` alone is not the condition: with an owning broker
    down the retry / backoff / abort / backlog accounting runs as before
    (values pinned from the commit before direct booking)."""
    gw = Gateway(
        Platform.uniform(PORTS, PORTS, CAP),
        num_shards=2,
        batch_size=2,
        backoff=BackoffSchedule(base=2.0, multiplier=2.0, max_attempts=3),
        backlog_limit=4,
    )
    rng = random.Random(3)
    t = 0.0

    def wave(n):
        nonlocal t
        for _ in range(n):
            t += 1.0
            gw.submit(
                ingress=rng.randrange(PORTS),
                egress=rng.randrange(PORTS),
                volume=rng.uniform(50, 300),
                deadline=t + rng.uniform(40, 120),
                now=t,
            )

    wave(6)
    gw.crash_broker(1, now=t)
    wave(10)
    gw.restart_broker(1, now=t + 1.0)
    wave(6)
    gw.drain(t + 1.0)
    stats = gw.stats
    assert (stats.accepted, stats.rejected) == (14, 8)
    assert (stats.local, stats.cross_shard) == (13, 9)
    assert stats.prepare_retries == 16
    assert stats.retry_delay_total == 48.0
    assert stats.twophase_aborts == 5
    assert (stats.backlogged, stats.readmitted) == (4, 4)
    # Only the transactions that met the crashed broker left protocol records.
    assert [len(b.resolutions()) for b in gw.brokers] == [3, 0]
    assert check_gateway(gw, expect_quiesced=True).ok


class TestBrokerSurface:
    def gateway(self):
        return Gateway(Platform.uniform(PORTS, PORTS, CAP), num_shards=2)

    def test_non_owned_ports_still_raise(self):
        broker = self.gateway().brokers[0]  # owns the even ports
        with pytest.raises(ConfigurationError, match="does not own ingress port 1"):
            broker.book_side("ingress", 1, ((0.0, 10.0, 5.0),))
        with pytest.raises(ConfigurationError, match="does not own egress port 3"):
            broker.timeline("egress", 3)
        with pytest.raises(ConfigurationError, match="does not own"):
            broker.has_degradations("ingress", 1)
        with pytest.raises(ConfigurationError, match="side must be"):
            broker.timeline("sideways", 0)

    def test_book_side_checks_capacity_and_commits_without_a_hold(self):
        broker = self.gateway().brokers[0]
        assert broker.book_side("ingress", 0, ((0.0, 10.0, 60.0),))
        assert not broker.book_side("ingress", 0, ((5.0, 15.0, 60.0),))  # 120 > 100
        assert broker.book_side("ingress", 0, ((10.0, 20.0, 60.0),))
        assert broker.book_side("egress", 2, ((0.0, 10.0, 80.0), (10.0, 20.0, 100.0)))
        assert not broker.book_side("egress", 2, ((0.0, 5.0, 20.0), (5.0, 10.0, 30.0)))
        assert list(broker.timeline("egress", 2).segments()) == [(0.0, 10.0, 80.0), (10.0, 20.0, 100.0)]
        assert broker.holds() == [] and broker.resolutions() == {}

    def test_refused_egress_leaves_the_ingress_slice_as_found(self):
        gw = self.gateway()
        first = gw.submit(ingress=0, egress=3, volume=700.0, deadline=10.0, now=0.0)
        assert first.confirmed
        ingress_before = list(gw.brokers[0].timeline("ingress", 0).segments())
        egress_before = list(gw.brokers[1].timeline("egress", 1).segments())
        # Fill egress 1 behind the coordinator's back *after* its search
        # would have passed: the booking itself must refuse.
        outcome_holder = []
        real = gw.brokers[1].book_side

        def sabotaged(side, port, *args, **kwargs):
            gw.brokers[1].restore("egress", 1, ((0.0, 50.0, CAP),))
            outcome_holder.append(real(side, port, *args, **kwargs))
            gw.brokers[1].release("egress", 1, ((0.0, 50.0, CAP),))
            return outcome_holder[-1]

        gw.brokers[1].book_side = sabotaged
        ticket = gw.submit(ingress=0, egress=1, volume=333.3, deadline=17.0, now=1.0)
        assert outcome_holder == [False]
        assert not ticket.confirmed
        assert ticket.reject_reason.value == "egress-full"
        assert gw.stats.twophase_aborts == 1
        assert list(gw.brokers[0].timeline("ingress", 0).segments()) == ingress_before
        assert list(gw.brokers[1].timeline("egress", 1).segments()) == egress_before
        assert check_gateway(gw, expect_quiesced=True).ok


def test_no_protocol_records_accumulate():
    gw = Gateway(Platform.uniform(16, 16, 1000.0), num_shards=4, batch_size=8)
    rng = random.Random(5)
    t = 0.0
    for _ in range(2000):
        t += rng.expovariate(1.0)
        gw.submit(
            ingress=rng.randrange(16),
            egress=rng.randrange(16),
            volume=rng.uniform(100.0, 5000.0),
            deadline=t + rng.uniform(30.0, 300.0),
            now=t,
        )
    gw.drain(t)
    assert gw.stats.accepted + gw.stats.rejected == 2000 and gw.stats.cross_shard > 1000
    for broker, shard in zip(gw.brokers, gw.snapshot()["shards"]):
        assert broker.resolutions() == {} and broker.holds() == []
        assert shard["prepared"] == {} and shard["resolved"] == {}
