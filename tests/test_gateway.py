"""Unit and integration tests for the sharded admission gateway."""

import hashlib

import pytest

from repro.control import BrokerCrash, PortFault, run_gateway_fault_drill
from repro.control.journal import Journal
from repro.core.errors import ConfigurationError
from repro.core.ledger import Degradation
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import (
    AdmissionOrdering,
    Batcher,
    BrokerUnavailable,
    EdgeLimit,
    Gateway,
    ShardBroker,
    ShardMap,
    Ticket,
)
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


class TestShardMap:
    def test_round_robin_assignment_covers_all_ports(self):
        smap = ShardMap(platform(6), 4)
        for side in ("ingress", "egress"):
            assigned = sorted(
                port for s in range(4) for port in
                (smap.ports_of(s)[0] if side == "ingress" else smap.ports_of(s)[1])
            )
            assert assigned == list(range(6))
        assert smap.shard_of("ingress", 5) == 5 % 4

    def test_is_local(self):
        smap = ShardMap(platform(4), 2)
        assert smap.is_local(0, 2)       # both on shard 0
        assert not smap.is_local(0, 1)   # shards 0 and 1

    def test_single_shard_owns_everything(self):
        smap = ShardMap(platform(3), 1)
        ins, outs = smap.ports_of(0)
        assert list(ins) == [0, 1, 2] and list(outs) == [0, 1, 2]

    def test_shard_count_bounds(self):
        with pytest.raises(ConfigurationError):
            ShardMap(platform(2), 0)
        with pytest.raises(ConfigurationError):
            ShardMap(platform(2), 3)


class TestShardBroker:
    def make(self, shards=2, shard=0, n=4):
        return ShardBroker(shard, ShardMap(platform(n), shards))

    def test_ownership_enforced(self):
        broker = self.make()
        assert broker.owns("ingress", 0) and not broker.owns("ingress", 1)
        with pytest.raises(ConfigurationError):
            broker.timeline("ingress", 1)
        with pytest.raises(ConfigurationError):
            broker.book_pair(1, 1, ((0.0, 1.0, 5.0),))

    def test_prepare_commit_books_capacity(self):
        broker = self.make()
        hold = broker.prepare("ingress", 0, ((0.0, 10.0, 400.0),), rid=7, expires=100.0)
        assert hold is not None
        assert broker.usage_at("ingress", 0, 5.0) == pytest.approx(400.0)
        broker.commit(hold.hold_id)
        assert broker.holds() == []
        assert broker.usage_at("ingress", 0, 5.0) == pytest.approx(400.0)

    def test_prepare_refuses_beyond_capacity(self):
        broker = self.make()
        assert broker.prepare("ingress", 0, ((0.0, 10.0, 900.0),), rid=1, expires=99.0)
        assert broker.prepare("ingress", 0, ((0.0, 10.0, 200.0),), rid=2, expires=99.0) is None

    def test_abort_hold_releases_capacity(self):
        broker = self.make()
        hold = broker.prepare("egress", 0, ((0.0, 10.0, 400.0),), rid=7, expires=100.0)
        assert broker.abort_hold(hold.hold_id) is True
        assert broker.usage_at("egress", 0, 5.0) == pytest.approx(0.0)
        assert broker.abort_hold(hold.hold_id) is False

    def test_expire_holds_sweep(self):
        broker = self.make()
        h1 = broker.prepare("ingress", 0, ((0.0, 10.0, 100.0),), rid=1, expires=50.0)
        h2 = broker.prepare("ingress", 0, ((0.0, 10.0, 100.0),), rid=2, expires=200.0)
        expired = broker.expire_holds(60.0)
        assert [h.hold_id for h in expired] == [h1.hold_id]
        assert [h.hold_id for h in broker.holds()] == [h2.hold_id]
        assert broker.holds_expired == 1
        assert broker.usage_at("ingress", 0, 5.0) == pytest.approx(100.0)

    def test_crash_wipes_holds_but_keeps_commits(self):
        broker = self.make()
        broker.book_pair(0, 0, ((0.0, 10.0, 300.0),))
        hold = broker.prepare("ingress", 0, ((0.0, 10.0, 400.0),), rid=9, expires=99.0)
        assert broker.crash() == 1
        assert broker.holds_wiped == 1
        # Pinned capacity returned; the committed booking survives.
        assert broker.usage_at("ingress", 0, 5.0) == pytest.approx(300.0)
        with pytest.raises(BrokerUnavailable):
            broker.prepare("ingress", 0, ((0.0, 1.0, 1.0),), rid=1, expires=9.0)
        with pytest.raises(BrokerUnavailable):
            broker.commit(hold.hold_id)
        assert broker.abort_hold(hold.hold_id) is False  # cleanup stays callable
        broker.restart()
        assert broker.prepare("ingress", 0, ((0.0, 1.0, 1.0),), rid=1, expires=9.0)

    def test_degraded_port_uses_free_capacity_path(self):
        broker = self.make()
        broker.degrade(Degradation(side="ingress", port=0, t0=0.0, t1=50.0, amount=800.0))
        assert broker.has_degradations("ingress", 0)
        assert not broker.port("ingress", 0).fits(((0.0, 10.0, 300.0),))
        assert broker.port("ingress", 0).fits(((0.0, 10.0, 150.0),))


class TestCachedPeak:
    def test_never_stale_after_any_mutation(self):
        broker = ShardBroker(0, ShardMap(platform(2), 1))
        tl = broker.timeline("ingress", 0)

        def check():
            assert broker.cached_peak("ingress", 0) == max(0.0, tl.global_max())

        check()
        broker.book_pair(0, 0, ((0.0, 10.0, 250.0),))
        check()
        assert broker.cached_peak("ingress", 0) == pytest.approx(250.0)
        hold = broker.prepare("ingress", 0, ((5.0, 15.0, 100.0),), rid=1, expires=99.0)
        check()
        assert broker.cached_peak("ingress", 0) == pytest.approx(350.0)
        broker.abort_hold(hold.hold_id)
        check()
        broker.release("ingress", 0, ((0.0, 10.0, 250.0),))
        check()
        assert broker.cached_peak("ingress", 0) == pytest.approx(0.0)
        broker.degrade(Degradation(side="ingress", port=0, t0=0.0, t1=5.0, amount=10.0))
        check()
        # Behind the broker's back: the broker-side cache this replaces
        # went stale here; the kernel's own cache cannot.
        tl.add(0.0, 1.0, 100.0)
        check()
        assert broker.cached_peak("ingress", 0) == pytest.approx(100.0)


class TestBatcher:
    def ticket(self, gw, **kw):
        return gw.submit(**kw)

    def requests(self):
        gw = Gateway(platform(), batch_size=3)
        return gw

    def pending(self, seq, rid, volume, t_end):
        req = Request(
            rid=rid, ingress=0, egress=0, volume=volume,
            t_start=0.0, t_end=t_end, max_rate=1000.0,
        )
        return Ticket(rid=rid, request=req, seq=seq, client="c")

    def test_fifo_preserves_submission_order(self):
        b = Batcher(3, AdmissionOrdering.FIFO)
        items = [self.pending(2, 2, 10.0, 100.0), self.pending(0, 0, 30.0, 100.0),
                 self.pending(1, 1, 20.0, 100.0)]
        for p in items:
            b.enqueue(p)
        assert [p.seq for p in b.drain(0.0)] == [0, 1, 2]

    def test_min_laxity_orders_tightest_first(self):
        b = Batcher(3, AdmissionOrdering.MIN_LAXITY)
        # laxity = (t_end - now) - volume/max_rate
        for p in [self.pending(0, 0, 100.0, 500.0),   # laxity 499.9
                  self.pending(1, 1, 900.0, 10.0),    # laxity 9.1
                  self.pending(2, 2, 100.0, 50.0)]:   # laxity 49.9
            b.enqueue(p)
        assert [p.seq for p in b.drain(0.0)] == [1, 2, 0]

    def test_max_value_orders_biggest_first(self):
        b = Batcher(3, AdmissionOrdering.MAX_VALUE)
        for p in [self.pending(0, 0, 10.0, 100.0), self.pending(1, 1, 99.0, 100.0),
                  self.pending(2, 2, 50.0, 100.0)]:
            b.enqueue(p)
        assert [p.seq for p in b.drain(0.0)] == [1, 2, 0]

    def test_ordering_from_name(self):
        assert AdmissionOrdering.from_name("min-laxity") is AdmissionOrdering.MIN_LAXITY
        with pytest.raises(ConfigurationError):
            AdmissionOrdering.from_name("lifo")


class TestGatewayBasics:
    def test_batch_of_one_decides_immediately(self):
        gw = Gateway(platform())
        t = gw.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        assert t.decided and t.confirmed

    def test_batch_flushes_when_full_or_on_time_advance(self):
        gw = Gateway(platform(), batch_size=3)
        t1 = gw.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=0.0)
        t2 = gw.submit(ingress=1, egress=2, volume=10.0, deadline=100.0, now=0.0)
        assert not t1.decided and gw.pending() == 2
        # Time advance force-flushes the previous instant's batch.
        t3 = gw.submit(ingress=2, egress=3, volume=10.0, deadline=100.0, now=5.0)
        assert t1.decided and t2.decided and not t3.decided
        gw.drain(5.0)
        assert t3.decided
        assert gw.stats.batches == 2

    def test_time_cannot_go_backwards(self):
        gw = Gateway(platform())
        gw.submit(ingress=0, egress=0, volume=1.0, deadline=100.0, now=10.0)
        with pytest.raises(ConfigurationError):
            gw.submit(ingress=0, egress=0, volume=1.0, deadline=100.0, now=5.0)

    def test_cancel_returns_capacity(self):
        gw = Gateway(platform(2, 100.0))
        a = gw.submit(ingress=0, egress=0, volume=1000.0, deadline=10.0, now=0.0)
        assert a.confirmed
        b = gw.submit(ingress=0, egress=0, volume=1000.0, deadline=10.0, now=0.0)
        assert not b.confirmed
        assert gw.cancel(a.rid, now=0.0) is True
        c = gw.submit(ingress=0, egress=0, volume=1000.0, deadline=10.0, now=0.0)
        assert c.confirmed
        assert gw.cancel(a.rid, now=0.0) is False  # already terminated

    def test_abort_frees_tail_only(self):
        gw = Gateway(platform(2, 100.0))
        a = gw.submit(ingress=0, egress=0, volume=1000.0, deadline=10.0, now=0.0)
        assert gw.abort(a.rid, now=5.0) is True
        ins, _ = gw.port_usage(7.0)
        assert ins[0] == pytest.approx(0.0)
        assert a.carried == pytest.approx(500.0)

    def test_degrade_displaces_latest_start_first(self):
        gw = Gateway(platform(2, 100.0), num_shards=2)
        a = gw.submit(ingress=0, egress=0, volume=600.0, deadline=10.0, now=0.0)
        b = gw.submit(ingress=0, egress=1, volume=400.0, deadline=20.0, now=0.0)
        assert a.confirmed and b.confirmed
        displaced = gw.degrade(
            side="ingress", port=0, amount=70.0, start=0.0, end=20.0, now=0.0
        )
        # 30 MB/s remain: b (rid tiebreak on equal starts) yields first,
        # after which a's 60 MB/s still exceeds 30 and it yields too...
        assert [r.rid for r in displaced] == [b.rid, a.rid]
        assert gw.max_overcommit() <= 1e-6
        # ...and a smaller cut displaces only the tiebreak victim.
        gw2 = Gateway(platform(2, 100.0), num_shards=2)
        a2 = gw2.submit(ingress=0, egress=0, volume=600.0, deadline=10.0, now=0.0)
        b2 = gw2.submit(ingress=0, egress=1, volume=400.0, deadline=20.0, now=0.0)
        displaced2 = gw2.degrade(
            side="ingress", port=0, amount=30.0, start=0.0, end=20.0, now=0.0
        )
        assert [r.rid for r in displaced2] == [b2.rid]
        assert a2.confirmed and gw2.max_overcommit() <= 1e-6

    def test_unknown_rid_raises(self):
        gw = Gateway(platform())
        with pytest.raises(KeyError):
            gw.cancel(99, now=0.0)
        with pytest.raises(KeyError):
            gw.abort(99, now=0.0)


class TestOneRecordPerDecision:
    """A ticket *is* the reservation: one object from submit to cancel."""

    def test_the_ticket_is_what_every_reader_sees(self):
        seen = []
        gw = Gateway(platform(), on_decision=lambda reservation, now: seen.append(reservation))
        ticket = gw.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        assert isinstance(ticket, Ticket)
        assert gw.get(ticket.rid) is ticket
        assert gw.reservations() == [ticket] and gw.reservations()[0] is ticket
        assert seen == [ticket] and seen[0] is ticket

    def test_pending_and_edge_refused_tickets_are_not_reservations(self):
        gw = Gateway(platform(), batch_size=2, edge=EdgeLimit(rate=10.0, burst=100.0))
        pending = gw.submit(ingress=0, egress=1, volume=80.0, deadline=500.0, now=0.0)
        refused = gw.submit(ingress=0, egress=1, volume=80.0, deadline=500.0, now=0.0)
        assert not pending.decided and gw.get(pending.rid) is pending
        assert refused.decided and refused.edge_refused and not refused.confirmed
        assert gw.reservations() == [] and gw.snapshot()["reservations"] == []
        with pytest.raises(KeyError):
            gw.cancel(refused.rid, now=0.0)
        # ... which did not settle the open batch; draining it does.
        gw.drain(0.0)
        assert pending.decided and gw.reservations() == [pending]
        assert [row["rid"] for row in gw.snapshot()["reservations"]] == [pending.rid]
        assert gw.snapshot()["edge_refused"] == [refused.rid]

    def test_a_readmission_is_a_ticket_carrying_the_parked_one(self):
        gw = Gateway(platform(), num_shards=2, backlog_limit=4)
        gw.crash_broker(1, now=0.0)
        parked = gw.submit(
            ingress=0, egress=1, volume=100.0, deadline=500.0, now=0.0, client="alice"
        )
        gw.submit(ingress=0, egress=0, volume=100.0, deadline=500.0, now=1.0, client="bob")
        gw.restart_broker(1, now=10.0)
        readmitted = gw.get(parked.rid + 2)
        assert isinstance(readmitted, Ticket) and readmitted.decided and readmitted.confirmed
        assert (readmitted.seq, readmitted.client) == (parked.seq, "alice")
        assert readmitted.origin == parked.rid
        assert readmitted in gw.reservations()
        assert gw.get(parked.rid) is parked and not parked.confirmed


class TestEdgeLimiter:
    def test_refusals_counted_and_metered(self):
        tel = Telemetry()
        gw = Gateway(platform(), edge=EdgeLimit(rate=10.0, burst=100.0), telemetry=tel)
        a = gw.submit(ingress=0, egress=0, volume=80.0, deadline=500.0, now=0.0, client="u1")
        b = gw.submit(ingress=0, egress=0, volume=80.0, deadline=500.0, now=0.0, client="u1")
        c = gw.submit(ingress=0, egress=0, volume=80.0, deadline=500.0, now=0.0, client="u2")
        assert not a.edge_refused and b.edge_refused and not c.edge_refused
        assert b.allocation is None and b.decided
        assert gw.stats.edge_refused == 1
        counter = tel.metrics.counter("gateway_edge_refusals_total")
        assert counter.value(client="u1") == pytest.approx(1.0)
        assert counter.value(client="u2") == pytest.approx(0.0)

    def test_bucket_refills_over_time(self):
        gw = Gateway(platform(), edge=EdgeLimit(rate=10.0, burst=100.0))
        gw.submit(ingress=0, egress=0, volume=100.0, deadline=500.0, now=0.0)
        refused = gw.submit(ingress=0, egress=0, volume=100.0, deadline=500.0, now=0.0)
        assert refused.edge_refused
        later = gw.submit(ingress=0, egress=0, volume=100.0, deadline=500.0, now=10.0)
        assert not later.edge_refused


class TestTwoPhase:
    def test_cross_shard_admission_books_both_slices(self):
        gw = Gateway(platform(), num_shards=2)
        t = gw.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        assert t.confirmed
        assert gw.stats.cross_shard == 1 and gw.stats.local == 0
        alloc = t.allocation
        b_in = gw.coordinator.broker_for("ingress", 0)
        b_out = gw.coordinator.broker_for("egress", 1)
        mid = (alloc.sigma + alloc.tau) / 2
        assert b_in.usage_at("ingress", 0, mid) == pytest.approx(alloc.bw)
        assert b_out.usage_at("egress", 1, mid) == pytest.approx(alloc.bw)
        assert b_in.holds() == [] and b_out.holds() == []

    def test_crash_mid_prepare_releases_all_holds(self):
        """A broker crash between submission and flush aborts the pending
        two-phase transactions and strands no capacity anywhere."""
        gw = Gateway(platform(), num_shards=2, batch_size=2)
        gw.submit(ingress=0, egress=1, volume=500.0, deadline=100.0, now=0.0)
        gw.crash_broker(1, now=0.0)  # egress 1's owner; batch still open
        t2 = gw.submit(ingress=2, egress=3, volume=500.0, deadline=100.0, now=0.0)
        assert t2.decided  # batch full -> flushed against the crashed broker
        for ticket in (gw.get(0), t2):
            r = ticket
            assert not r.confirmed
            assert r.reject_reason.value == "broker-unavailable"
        assert gw.stats.twophase_aborts >= 1
        assert gw.stats.prepare_retries > 0
        for broker in gw.brokers:
            assert broker.holds() == []
        healthy = gw.brokers[0]
        for port in (0, 2):
            assert healthy.usage_at("ingress", port, 50.0) == pytest.approx(0.0)

    def test_recovers_after_restart(self):
        gw = Gateway(platform(), num_shards=2)
        gw.crash_broker(1, now=0.0)
        bad = gw.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=0.0)
        assert not bad.confirmed
        gw.restart_broker(1, now=1.0)
        good = gw.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=1.0)
        assert good.confirmed

    def test_hold_ttl_expires_via_clock_advance(self):
        gw = Gateway(platform(), num_shards=2, hold_ttl=30.0)
        broker = gw.brokers[0]
        # A stranded hold (e.g. a crashed coordinator): placed directly,
        # never committed.
        broker.prepare("ingress", 0, ((0.0, 100.0, 500.0),), rid=77, expires=30.0)
        gw.submit(ingress=1, egress=0, volume=10.0, deadline=100.0, now=40.0)
        assert broker.holds() == []
        assert gw.stats.holds_expired == 1
        assert broker.usage_at("ingress", 0, 50.0) == pytest.approx(0.0)


class TestTelemetry:
    def test_decision_counters_and_batch_span(self):
        tel = Telemetry()
        gw = Gateway(platform(2, 50.0), num_shards=2, batch_size=2, telemetry=tel)
        # First fills the pipe for the whole window; second cannot fit.
        gw.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        submits = tel.metrics.counter("gateway_submits_total")
        assert submits.value(outcome="accepted") == pytest.approx(1.0)
        assert submits.value(outcome="rejected") == pytest.approx(1.0)
        assert tel.metrics.counter("gateway_rejects_total").total() == pytest.approx(1.0)
        assert tel.metrics.counter("gateway_batches_total").value(
            ordering="fifo"
        ) == pytest.approx(1.0)
        names = [s.name for s in tel.tracer.spans()]
        assert "gateway.batch" in names
        assert any(e.name == "gateway.submit" for e in tel.events)


class TestJournalReplay:
    def workload(self, gw):
        gw.submit(ingress=0, egress=1, volume=800.0, deadline=60.0, now=0.0)
        gw.submit(ingress=1, egress=2, volume=400.0, deadline=80.0, now=0.0)
        gw.submit(ingress=2, egress=0, volume=600.0, deadline=90.0, now=3.0)
        gw.cancel(0, now=5.0)
        gw.crash_broker(0, now=6.0)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=99.0, now=6.0)
        gw.restart_broker(0, now=8.0)
        gw.degrade(side="egress", port=2, amount=900.0, start=9.0, end=40.0, now=9.0)
        gw.submit(ingress=3, egress=3, volume=50.0, deadline=70.0, now=10.0)
        gw.abort(2, now=11.0)
        gw.drain(12.0)

    @pytest.mark.parametrize("shards,batch", [(1, 1), (2, 2), (4, 3)])
    def test_replay_reconstructs_snapshot(self, shards, batch):
        journal = Journal()
        gw = Gateway(platform(), num_shards=shards, batch_size=batch, journal=journal)
        self.workload(gw)
        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == gw.snapshot()

    def test_replay_with_edge_and_ordering(self):
        journal = Journal()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=4,
            ordering="min-laxity",
            edge=EdgeLimit(rate=200.0, burst=900.0),
            journal=journal,
        )
        self.workload(gw)
        assert gw.stats.edge_refused >= 1  # the limiter did shape the run
        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == gw.snapshot()

    def test_replay_requires_gateway_journal(self):
        journal = Journal()
        journal.set_header({"kind": "service"})
        with pytest.raises(ConfigurationError):
            Gateway.replay(journal)


class TestGatewayFaultDrill:
    def requests(self, seed, n=40, ports=6):
        import numpy as np

        rng = np.random.default_rng(seed)
        out = []
        for rid in range(n):
            t0 = float(rng.uniform(0.0, 300.0))
            out.append(
                Request(
                    rid=rid,
                    ingress=int(rng.integers(ports)),
                    egress=int(rng.integers(ports)),
                    volume=float(rng.uniform(1_000.0, 40_000.0)),
                    t_start=t0,
                    t_end=t0 + float(rng.uniform(120.0, 900.0)),
                    max_rate=1000.0,
                )
            )
        return out

    def test_drill_decides_everything_and_journal_replays(self):
        journal = Journal()
        report = run_gateway_fault_drill(
            Platform.uniform(6, 6, 1000.0),
            self.requests(11),
            num_shards=4,
            batch_size=4,
            abort_rate=0.15,
            faults=[PortFault(side="ingress", port=2, amount=700.0, start=60.0, end=200.0)],
            crashes=[BrokerCrash(shard=1, at=100.0, restart_at=150.0)],
            journal=journal,
            seed=5,
        )
        gw = report.gateway
        assert gw.pending() == 0
        assert gw.stats.submits == 40
        assert gw.stats.accepted + gw.stats.rejected == 40
        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == gw.snapshot()
        for broker in gw.brokers:
            assert broker.holds() == []
        # The injector's draw order, pinned before the drill's private
        # sampler was folded into FaultInjector: one draw per *confirmed*
        # decision, the abort instant uniform from the decision instant (a
        # batch flushed by a clock advance decided at the previous one).
        assert [(a.rid, a.at) for a in report.aborts] == [
            (6, 134.44918163712987),
            (10, 426.7212515348533),
            (14, 222.15159501284847),
            (24, 652.4772746167711),
            (25, 202.08129438907918),
        ]
        assert (
            hashlib.sha256(journal.to_jsonl().encode()).hexdigest()
            == "5a63be5026a334aa82c5ab863eda07336cffb3f8b500c6e91e05d5f8fabc930e"
        )

    def test_an_abort_whose_instant_passed_while_its_batch_waited_strikes_now(self):
        """A batch decides at its own instant but is flushed by the next
        arrival; an abort sampled between the two used to be scheduled in
        the simulator's past (ValueError on 16 of 60 seeds at this rate)."""
        for seed in (1, 2, 5):
            journal = Journal()
            report = run_gateway_fault_drill(
                Platform.uniform(6, 6, 1000.0),
                self.requests(seed),
                num_shards=4,
                batch_size=4,
                abort_rate=0.5,
                journal=journal,
                seed=seed,
            )
            gw = report.gateway
            assert gw.stats.aborted > 0 and gw.max_overcommit() <= 1e-6
            assert Gateway.replay(journal).snapshot() == gw.snapshot()

    def test_crash_without_restart_keeps_rejecting(self):
        report = run_gateway_fault_drill(
            Platform.uniform(4, 4, 1000.0),
            self.requests(3, n=20, ports=4),
            num_shards=4,
            crashes=[BrokerCrash(shard=0, at=0.0)],
            seed=2,
        )
        gw = report.gateway
        unavailable = [
            r for r in gw.reservations()
            if r.reject_reason is not None and r.reject_reason.value == "broker-unavailable"
        ]
        assert unavailable
        assert gw.max_overcommit() <= 1e-6


class TestSimulatorEvery:
    def test_fires_on_interval_until_bound(self):
        sim = Simulator()
        seen = []
        sim.every(5.0, lambda e: seen.append(sim.now), until=22.0)
        sim.run(until=100.0)
        assert seen == [5.0, 10.0, 15.0, 20.0]

    def test_explicit_start_and_validation(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.every(2.0, lambda e: seen.append(sim.now), start=11.0, until=15.0)
        sim.run()
        assert seen == [11.0, 13.0, 15.0]
        with pytest.raises(ValueError):
            sim.every(0.0, lambda e: None)
