"""Chaos-plane tests: lossy channels, idempotent delivery, degraded-mode
admission, crash-mid-2PC, the invariant checker and the chaos matrix.

The through-line: with chaos off the channel layer is invisible
(byte-identical decisions); with chaos on, every run — however hostile —
must end invariant-clean and replay-convergent.
"""

import json
import math
import random
import shutil
import time
from pathlib import Path

import pytest

from repro.control import (
    CHAOS_SCENARIOS,
    chaos_scenario,
    run_chaos_matrix,
    run_fault_drill,
)
from repro.core.booking import RejectReason
from repro.core.errors import ConfigurationError, InternalInvariantError
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import (
    Channel,
    ChannelTimeout,
    ChaosPolicy,
    EdgeChaos,
    Gateway,
    Journal,
    Partition,
    ShardBroker,
    ShardMap,
    check_gateway,
    hold_expired,
)
from repro.obs import Telemetry, use_telemetry
from repro.schedulers.retry import BackoffSchedule

from .conftest import without_protocol_records

DATA = Path(__file__).parent / "data"


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


def make_broker(shards=2, shard=0, n=4):
    return ShardBroker(shard, ShardMap(platform(n), shards))


def chaotic_workload(seed, n=30, ports=8, horizon=400.0):
    """A seeded mixed local/cross-shard workload for drills."""
    rng = random.Random(seed)
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        volume = rng.uniform(0.2, 0.8) * rate * duration
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(ports),
                egress=rng.randrange(ports),
                volume=volume,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    return requests


class TestChaosPolicy:
    def test_probability_and_cost_validation(self):
        with pytest.raises(ConfigurationError):
            EdgeChaos(drop=1.5)
        with pytest.raises(ConfigurationError):
            EdgeChaos(duplicate=-0.1)
        with pytest.raises(ConfigurationError):
            EdgeChaos(latency=-1.0)
        with pytest.raises(ConfigurationError):
            Partition(shard=0, start=10.0, end=10.0)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(timeout_cost=-1.0)

    def test_edge_override_and_partition_lookup(self):
        special = EdgeChaos(drop=0.5)
        policy = ChaosPolicy(
            default=EdgeChaos(drop=0.1),
            edges=((2, special),),
            partitions=(Partition(shard=1, start=10.0, end=20.0),),
        )
        assert policy.edge_for(2) is special
        assert policy.edge_for(0).drop == pytest.approx(0.1)
        assert policy.is_partitioned(1, 10.0)
        assert not policy.is_partitioned(1, 20.0)  # [start, end)
        assert not policy.is_partitioned(0, 15.0)

    def test_unhealed_partition_covers_forever(self):
        p = Partition(shard=0, start=5.0)
        assert p.covers(1e12)
        assert p.to_dict()["end"] is None
        assert Partition.from_dict(p.to_dict()).end == math.inf

    def test_dict_roundtrip(self):
        policy = ChaosPolicy(
            seed=7,
            default=EdgeChaos(drop=0.2, delay=0.1, delay_cost=3.0),
            edges=((1, EdgeChaos(duplicate=0.4)),),
            partitions=(Partition(shard=0, start=1.0, end=9.0),),
            timeout_cost=12.0,
        )
        assert ChaosPolicy.from_dict(policy.to_dict()) == policy

    def test_canned_scenarios(self):
        assert ChaosPolicy.lossy().default.drop > 0.0
        assert ChaosPolicy.duplicate_storm().default.duplicate > 0.0
        assert ChaosPolicy.slow().default.latency > 0.0
        assert ChaosPolicy.with_partition(1, 10.0, 20.0).partitions
        crashy = ChaosPolicy.crash_mid_2pc()
        assert crashy.default.crash_after_prepare > 0.0

    def test_scenario_registry(self):
        for name in CHAOS_SCENARIOS:
            chaos, crashes, sweep = chaos_scenario(name, seed=1, num_shards=4, horizon=600.0)
            if name == "clean":
                assert chaos is None and crashes == () and sweep is None
            else:
                assert chaos is not None
        with pytest.raises(ConfigurationError):
            chaos_scenario("nonsense")


class TestChannel:
    def hold_args(self):
        return dict(rid=1, expires=100.0, now=0.0)

    def test_chaos_off_is_pure_passthrough(self):
        broker = make_broker()
        channel = Channel(broker)
        hold = channel.prepare("ingress", 0, ((0.0, 10.0, 100.0),), **self.hold_args())
        assert hold is not None
        channel.commit(hold.hold_id, now=0.0)
        assert channel.stats.calls == 0  # nothing even counted
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(100.0)

    def test_deterministic_across_rebuilds(self):
        def run():
            broker = make_broker()
            channel = Channel(broker, policy=ChaosPolicy.lossy(seed=5, drop=0.4))
            outcomes = []
            for rid in range(30):
                try:
                    hold = channel.prepare(
                        "ingress", 0, ((float(rid), float(rid) + 1.0, 1.0),),
                        rid=rid, expires=1e9, now=float(rid),
                    )
                    outcomes.append(hold.hold_id if hold else None)
                except ChannelTimeout:
                    outcomes.append("lost")
            return outcomes, vars(channel.stats)

        assert run() == run()

    def test_drop_can_execute_then_lose_reply(self):
        broker = make_broker()
        channel = Channel(broker, policy=ChaosPolicy(seed=3, default=EdgeChaos(drop=1.0)))
        lost = 0
        for rid in range(20):
            with pytest.raises(ChannelTimeout):
                channel.prepare(
                    "ingress", 0, ((float(rid), float(rid) + 1.0, 1.0),),
                    rid=rid, expires=1e9, now=0.0,
                )
            lost += 1
        assert lost == channel.stats.drops == 20
        # Roughly half the drops executed before losing the reply: the
        # broker holds capacity the caller never heard about.
        executed = len(broker.holds())
        assert 0 < executed < 20

    def test_duplicate_delivery_invokes_twice_but_books_once(self):
        broker = make_broker()
        channel = Channel(
            broker, policy=ChaosPolicy(seed=0, default=EdgeChaos(duplicate=1.0))
        )
        hold = channel.prepare("ingress", 0, ((0.0, 10.0, 50.0),), **self.hold_args())
        assert hold is not None
        assert channel.stats.duplicates == 1
        assert len(broker.holds()) == 1  # the replay was absorbed
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(50.0)

    def test_partition_times_out_then_heals(self):
        broker = make_broker()
        channel = Channel(broker, policy=ChaosPolicy.with_partition(0, 10.0, 20.0))
        assert channel.serviceable(5.0)
        assert not channel.serviceable(10.0)
        with pytest.raises(ChannelTimeout) as err:
            channel.prepare("ingress", 0, ((0.0, 1.0, 1.0),), rid=1, expires=99.0, now=15.0)
        assert err.value.cost == pytest.approx(30.0)
        assert channel.stats.partitioned == 1
        assert channel.prepare(
            "ingress", 0, ((0.0, 1.0, 1.0),), rid=1, expires=99.0, now=20.0
        ) is not None

    def test_release_is_reliable_through_partition_and_drop(self):
        broker = make_broker()
        broker.book_pair(0, 0, ((0.0, 10.0, 100.0),), key=1)
        channel = Channel(
            broker,
            policy=ChaosPolicy(
                seed=0,
                default=EdgeChaos(drop=1.0),
                partitions=(Partition(shard=0, start=0.0),),
            ),
        )
        channel.release("ingress", 0, ((0.0, 10.0, 100.0),), now=5.0)
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(0.0)

    def test_crash_after_prepare_wipes_the_broker(self):
        broker = make_broker()
        channel = Channel(
            broker,
            policy=ChaosPolicy(seed=0, default=EdgeChaos(crash_after_prepare=1.0)),
        )
        hold = channel.prepare("ingress", 0, ((0.0, 10.0, 50.0),), **self.hold_args())
        assert hold is not None and broker.crashed
        assert broker.holds() == []  # wiped with the process
        assert channel.stats.crashes == 1

    def test_termination_probes_read_the_durable_log(self):
        broker = make_broker()
        channel = Channel(broker)
        hold = channel.prepare("ingress", 0, ((0.0, 10.0, 50.0),), **self.hold_args())
        assert not channel.resolved_committed(hold.hold_id)
        channel.commit(hold.hold_id, now=0.0)
        assert channel.resolved_committed(hold.hold_id)
        assert not channel.booking_landed(9)
        channel.book_pair(0, 0, ((20.0, 30.0, 10.0),), rid=9, now=0.0)
        assert channel.booking_landed(9)


class TestBrokerIdempotency:
    def test_duplicate_prepare_returns_same_hold(self):
        broker = make_broker()
        first = broker.prepare("ingress", 0, ((0.0, 10.0, 100.0),), rid=1, expires=99.0, key=(1, "ingress"))
        replay = broker.prepare("ingress", 0, ((0.0, 10.0, 100.0),), rid=1, expires=99.0, key=(1, "ingress"))
        assert replay is first
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(100.0)

    def test_refusal_is_replayed_too(self):
        broker = make_broker()
        key = (2, "ingress")
        assert broker.prepare("ingress", 0, ((0.0, 1.0, 5000.0),), rid=2, expires=99.0, key=key) is None
        # Even though capacity is free now, the recorded refusal answers.
        assert broker.prepare("ingress", 0, ((0.0, 1.0, 1.0),), rid=2, expires=99.0, key=key) is None

    def test_replayed_prepare_after_abort_answers_none(self):
        broker = make_broker()
        key = (3, "ingress")
        hold = broker.prepare("ingress", 0, ((0.0, 10.0, 10.0),), rid=3, expires=99.0, key=key)
        broker.abort_hold(hold.hold_id)
        assert broker.prepare("ingress", 0, ((0.0, 10.0, 10.0),), rid=3, expires=99.0, key=key) is None
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(0.0)

    def test_duplicate_commit_and_abort_are_noops(self):
        broker = make_broker()
        hold = broker.prepare("ingress", 0, ((0.0, 10.0, 10.0),), rid=4, expires=99.0, key=(4, "i"))
        broker.commit(hold.hold_id)
        broker.commit(hold.hold_id)  # replayed: no error, no double booking
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(10.0)
        other = broker.prepare("ingress", 0, ((0.0, 10.0, 5.0),), rid=5, expires=99.0, key=(5, "i"))
        assert broker.abort_hold(other.hold_id) is True
        assert broker.abort_hold(other.hold_id) is False  # replay: harmless
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(10.0)

    def test_commit_of_unknown_hold_still_raises(self):
        broker = make_broker()
        with pytest.raises(ConfigurationError):
            broker.commit(12345)

    def test_duplicate_book_pair_books_once(self):
        broker = make_broker()
        broker.book_pair(0, 0, ((0.0, 10.0, 40.0),), key=7)
        broker.book_pair(0, 0, ((0.0, 10.0, 40.0),), key=7)
        assert broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(40.0)
        assert broker.was_booked(7) and not broker.was_booked(8)

    def test_booked_and_resolution_records_survive_crash(self):
        broker = make_broker()
        broker.book_pair(0, 0, ((0.0, 10.0, 40.0),), key=7)
        hold = broker.prepare("ingress", 0, ((20.0, 30.0, 10.0),), rid=9, expires=99.0, key=(9, "i"))
        broker.commit(hold.hold_id)
        broker.crash()
        assert broker.was_booked(7)
        assert broker.resolution_of(hold.hold_id) == "committed"


class TestDuplicateDeliveryProperty:
    """At-least-once delivery property: any schedule of duplicated /
    retried protocol messages lands on the exactly-once ledger state."""

    def script(self):
        """One protocol history: (op, args) tuples an adversary may replay."""
        return [
            ("prepare", ("ingress", 0, 0.0, 10.0, 100.0, 1)),
            ("prepare", ("egress", 0, 0.0, 10.0, 100.0, 1)),
            ("commit", (1, "ingress")),
            ("commit", (1, "egress")),
            ("prepare", ("ingress", 2, 5.0, 15.0, 50.0, 2)),
            ("abort", (2, "ingress")),
            ("book", (2, 2, 0.0, 8.0, 30.0, 3)),
            ("prepare", ("ingress", 0, 0.0, 10.0, 950.0, 4)),  # refused: full
        ]

    def apply(self, broker, op, args, holds):
        if op == "prepare":
            side, port, t0, t1, bw, rid = args
            hold = broker.prepare(side, port, ((t0, t1, bw),), rid=rid, expires=1e9, key=(rid, side))
            if hold is not None:
                holds[(rid, side)] = hold.hold_id
        elif op == "commit":
            rid, side = args
            broker.commit(holds[(rid, side)])
        elif op == "abort":
            rid, side = args
            broker.abort_hold(holds[(rid, side)])
        elif op == "book":
            ingress, egress, t0, t1, bw, rid = args
            broker.book_pair(ingress, egress, ((t0, t1, bw),), key=rid)

    @pytest.mark.parametrize("seed", range(8))
    def test_chaotic_schedules_converge(self, seed):
        exact = ShardBroker(0, ShardMap(platform(4), 1))
        holds = {}
        for op, args in self.script():
            self.apply(exact, op, args, holds)

        chaotic = ShardBroker(0, ShardMap(platform(4), 1))
        rng = random.Random(seed)
        holds2 = {}
        for op, args in self.script():
            # Deliver 1-3 times; later duplicates model stale retries.
            for _ in range(rng.randint(1, 3)):
                self.apply(chaotic, op, args, holds2)
        snap_exact = exact.snapshot()
        snap_chaotic = chaotic.snapshot()
        # Idempotency keys absorb the replays: identical slices, holds,
        # bookings and resolutions (work counters legitimately differ).
        for key in ("slices", "holds", "resolved", "booked"):
            assert snap_chaotic[key] == snap_exact[key]


class TestHoldTtlBoundary:
    def test_hold_expired_is_tolerance_aware(self):
        assert hold_expired(50.0, 50.0)          # deadline == now expires
        assert hold_expired(50.0, 50.0 + 1e-12)
        assert hold_expired(50.0 + 1e-12, 50.0)  # within float noise: gone
        assert not hold_expired(50.0 + 1.0, 50.0)

    def test_broker_sweep_expires_exact_deadline(self):
        broker = make_broker()
        broker.prepare("ingress", 0, ((0.0, 10.0, 10.0),), rid=1, expires=50.0, key=(1, "i"))
        assert broker.expire_holds(49.9) == []
        expired = broker.expire_holds(50.0)
        assert len(expired) == 1
        assert broker.holds() == [] and broker.port("ingress", 0).usage.usage_at(5.0) == pytest.approx(0.0)

    def test_gateway_sweep_matches_broker_boundary(self):
        # A stranded hold whose TTL lands exactly on the next clock tick
        # must be reclaimed by that tick's sweep, not one tick later.
        gw = Gateway(platform(), num_shards=2, hold_ttl=50.0)
        broker = gw.brokers[0]
        broker.prepare("ingress", 0, ((0.0, 10.0, 10.0),), rid=900, expires=50.0, key=(900, "i"))
        gw.drain(50.0)
        assert broker.holds() == []
        assert gw.stats.holds_expired == 1


class TestDegradedModeAdmission:
    def cross_shard_submit(self, gw, rid_hint=0, now=0.0, deadline=300.0):
        return gw.submit(ingress=0, egress=1, volume=100.0, deadline=deadline, now=now)

    def test_partition_rejects_shard_unreachable(self):
        gw = Gateway(platform(), num_shards=2, chaos=ChaosPolicy.with_partition(1, 0.0, 100.0))
        ticket = self.cross_shard_submit(gw)
        assert not ticket.confirmed
        assert ticket.reject_reason == RejectReason.SHARD_UNREACHABLE
        assert gw.stats.shard_unreachable == 1
        assert gw.stats.backlogged == 0  # no backlog configured

    def test_backlog_readmits_after_heal(self):
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy.with_partition(1, 0.0, 100.0),
            backlog_limit=4,
        )
        ticket = self.cross_shard_submit(gw, deadline=500.0)
        assert ticket.reject_reason == RejectReason.SHARD_UNREACHABLE
        assert gw.stats.backlogged == 1
        gw.drain(50.0)  # still partitioned: parked, not retried into a wall
        assert gw.stats.readmitted == 0
        gw.drain(120.0)  # healed: the parked request re-admits
        assert gw.stats.readmitted == 1
        readmitted = [r for r in gw.reservations() if r.origin == ticket.rid]
        assert len(readmitted) == 1 and readmitted[0].confirmed
        report = check_gateway(gw, now=gw.now)
        assert report.ok, report.violations

    def test_backlog_capped_and_deadline_pruned(self):
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy.with_partition(1, 0.0, 1e9),  # never heals
            backlog_limit=2,
        )
        for k in range(4):
            gw.submit(ingress=0, egress=1, volume=50.0, deadline=40.0, now=0.0)
        assert gw.stats.backlogged == 2  # cap respected
        assert len(gw.snapshot()["backlog"]) == 2
        gw.drain(200.0)  # deadlines long gone: pruned, nothing readmitted
        assert gw.snapshot()["backlog"] == []
        assert gw.stats.readmitted == 0

    def test_broker_restart_triggers_readmission(self):
        gw = Gateway(platform(), num_shards=2, backlog_limit=4)
        gw.crash_broker(1, now=0.0)
        ticket = self.cross_shard_submit(gw, deadline=500.0)
        assert ticket.reject_reason == RejectReason.BROKER_UNAVAILABLE
        assert gw.stats.backlogged == 1
        gw.restart_broker(1, now=10.0)
        assert gw.stats.readmitted == 1
        report = check_gateway(gw, now=gw.now)
        assert report.ok, report.violations
        # The re-admission has a decided ticket of its own: ``get`` reads
        # every rid ``cancel`` accepts (it raised ``KeyError`` for this one).
        readmitted = gw.get(ticket.rid + 1)
        assert readmitted.decided and readmitted.confirmed
        assert (readmitted.origin, readmitted.client) == (ticket.rid, ticket.client)
        assert gw.get(ticket.rid) == ticket and not ticket.confirmed
        assert gw.snapshot()["pending"] == []  # it takes no place in line
        assert gw.cancel(readmitted.rid, now=11.0) is True
        assert readmitted.cancelled_at == 11.0  # a view taken before reads the cancel
        with pytest.raises(KeyError):
            gw.get(readmitted.rid + 1)

    def test_lossy_mesh_still_admits_with_retries(self):
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy.lossy(seed=9, drop=0.3),
            backoff=BackoffSchedule(base=1.0, multiplier=1.5, max_attempts=6),
            rpc_deadline=200.0,
            backlog_limit=8,
        )
        accepted = 0
        for k in range(20):
            t = gw.submit(
                ingress=k % 4, egress=(k + 1) % 4, volume=50.0,
                deadline=float(500 + k), now=float(k),
            )
            accepted += bool(t.confirmed)
        gw.drain(600.0)
        assert accepted >= 15  # the retry budget absorbs most of the loss
        assert gw.stats.chaos_wait_total > 0.0
        report = check_gateway(gw, now=gw.now)
        assert report.ok, report.violations


    def test_stats_count_what_every_attempt_burned(self):
        """Each protocol tally is the sum over every outcome the
        coordinator returned — backlog re-admission attempts included
        (their retries, waits, aborts and compensations used to vanish)."""
        tallies = {
            "prepare_retries": "retries",
            "retry_delay_total": "retry_delay",
            "chaos_wait_total": "chaos_wait",
            "compensations": "compensations",
            "stranded_holds": "stranded",
            "recovered_deliveries": "recovered",
            "twophase_aborts": "aborted",
        }
        journal = Journal()
        gw = Gateway(
            platform(),
            num_shards=4,
            batch_size=2,
            hold_ttl=60.0,
            chaos=ChaosPolicy.lossy(seed=3, drop=0.3),
            backoff=BackoffSchedule(base=1.0, max_attempts=3),
            rpc_deadline=20.0,
            backlog_limit=8,
            journal=journal,
        )
        outcomes = []
        reserve = gw.coordinator.reserve

        def counted(rid, *args, **kwargs):
            outcome = reserve(rid, *args, **kwargs)
            outcomes.append((rid, outcome))
            return outcome

        gw.coordinator.reserve = counted
        rng = random.Random(3)
        submitted = {
            gw.submit(
                ingress=rng.randrange(4),
                egress=rng.randrange(4),
                volume=rng.uniform(500.0, 4000.0),
                deadline=3.0 * k + rng.uniform(100.0, 300.0),
                now=3.0 * k,
            ).rid
            for k in range(30)
        }
        gw.drain(600.0)
        for stat, tally in tallies.items():
            assert getattr(gw.stats, stat) == sum(getattr(o, tally) for _, o in outcomes), stat
        # Not vacuous: re-admission attempts burned some of every kind but retries.
        readmissions = [o for rid, o in outcomes if rid not in submitted]
        assert gw.stats.readmitted > 0 and len(readmissions) > gw.stats.readmitted
        for tally in ("chaos_wait", "compensations", "stranded", "recovered", "aborted"):
            assert sum(getattr(o, tally) for o in readmissions) > 0, tally
        assert Gateway.replay(journal).snapshot() == gw.snapshot()

    @pytest.mark.parametrize("seed", [33, 36, 56])
    def test_a_degrade_releases_stranded_holds_before_displacing(self, seed):
        """A lost abort strands a hold; the degraded port must still fit
        under its remaining capacity (Eq. 1), so the degrade releases the
        stranded holds in its window.  These seeds left the port 6–17 MB/s
        over when only reservations were displaced."""
        rng = random.Random(seed)
        gw = Gateway(
            Platform.uniform(4, 4, 100.0),
            num_shards=4,
            batch_size=1,
            chaos=ChaosPolicy.lossy(seed=5, drop=0.5),
            journal=Journal(),
        )
        for _ in range(rng.randint(5, 29)):
            size = rng.uniform(50.0, 3000.0)
            gw.submit(
                ingress=rng.randrange(4), egress=rng.randrange(4), volume=size,
                deadline=size / 100.0 + rng.uniform(5.0, 200.0), now=0.0,
            )  # fmt: skip
        held = sum(len(broker.holds()) for broker in gw.brokers)
        assert held > 0  # not vacuous: stranded holds are live at the degrade
        for _ in range(2):
            size, start, slack = rng.uniform(50, 3000), rng.randrange(4), rng.uniform(5, 200)
            gw.degrade(
                side="ingress", port=rng.randrange(4), amount=10.0 + size / 50.0,
                start=start, end=start + slack, now=0.0,
            )  # fmt: skip
        report = check_gateway(gw, journal=gw.journal, now=0.0)
        assert report.ok, report.violations
        assert sum(len(broker.holds()) for broker in gw.brokers) < held


class TestCrashMidTwoPhase:
    """Satellite: a broker crash at *every* point between prepare and
    commit leaves the ledgers invariant-clean and the journal replayable."""

    CRASH_POINTS = [
        ("after-ingress-prepare", ((0, EdgeChaos(crash_after_prepare=1.0)),)),
        ("after-egress-prepare", ((1, EdgeChaos(crash_after_prepare=1.0)),)),
        ("after-ingress-commit", ((0, EdgeChaos(crash_after_commit=1.0)),)),
        ("after-egress-commit", ((1, EdgeChaos(crash_after_commit=1.0)),)),
    ]

    @pytest.mark.parametrize("label,edges", CRASH_POINTS, ids=[c[0] for c in CRASH_POINTS])
    def test_every_crash_point_is_safe(self, label, edges):
        journal = Journal()
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy(seed=0, edges=edges),
            hold_ttl=60.0,
            journal=journal,
        )
        ticket = gw.submit(ingress=0, egress=1, volume=100.0, deadline=300.0, now=0.0)
        crashed = [b.shard_id for b in gw.brokers if b.crashed]
        assert crashed, "the scripted crash must have fired"
        if "commit" in label:
            # Crash *after* commit: the booking is durable, admission won.
            assert ticket.confirmed
        else:
            # Crash after prepare: the transaction must have aborted.
            assert not ticket.confirmed
        for shard in crashed:
            gw.restart_broker(shard, now=1.0)
        gw.drain(100.0)  # one full TTL: any stranded hold expires
        report = check_gateway(gw, journal=journal, now=gw.now, expect_quiesced=True)
        assert report.ok, report.violations

    def test_compensation_undoes_partial_commit(self):
        # The egress broker dies right after acknowledging its prepare;
        # the ingress commit then lands before the egress commit finds
        # the dead broker — that committed half must be released by a
        # compensation record, not stranded.
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy(seed=0, edges=((1, EdgeChaos(crash_after_prepare=1.0)),)),
        )
        ticket = gw.submit(ingress=0, egress=1, volume=100.0, deadline=300.0, now=0.0)
        assert not ticket.confirmed
        assert gw.stats.compensations == 1
        ins, outs = gw.port_usage(50.0)
        assert ins[0] == pytest.approx(0.0) and outs[1] == pytest.approx(0.0)

    def test_ambiguous_commit_resolves_via_termination_probe(self):
        # A lossy edge drops enough acknowledgements that some operation
        # exhausts its retries in the executed-but-reply-lost state.  The
        # coordinator's durable-log probe must discover the op landed and
        # keep the admission instead of leaking the booking.  Seed pinned
        # to a run where the ambiguous case actually occurs.
        gw = Gateway(
            platform(),
            num_shards=2,
            chaos=ChaosPolicy(seed=5, edges=((1, EdgeChaos(drop=0.6)),)),
            backoff=BackoffSchedule(base=1.0, max_attempts=5),
            rpc_deadline=500.0,
        )
        confirmed = 0
        for k in range(12):
            t = gw.submit(ingress=0, egress=1, volume=20.0, deadline=1000.0, now=float(k))
            confirmed += bool(t.confirmed)
        gw.drain(1200.0)
        assert gw.stats.recovered_deliveries > 0  # probe fired, admission stood
        assert confirmed > 0
        # Every booking that landed is explained by a confirmed reservation.
        report = check_gateway(gw, now=gw.now, expect_quiesced=True)
        assert report.ok, report.violations


class TestInvariantChecker:
    def test_clean_gateway_passes(self):
        journal = Journal()
        gw = Gateway(platform(), num_shards=2, journal=journal)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        report = check_gateway(gw, journal=journal, now=0.0)
        assert report.ok and report.checks["reservations"] == 1
        report.raise_if_failed()  # no-op when clean
        assert report.to_dict()["ok"] is True

    def test_detects_unexplained_booking(self):
        gw = Gateway(platform(), num_shards=2)
        gw.brokers[0].book_pair(0, 0, ((0.0, 10.0, 50.0),))  # behind the gateway's back
        report = check_gateway(gw, now=0.0)
        assert not report.ok
        assert any("ledger carries" in v for v in report.violations)
        with pytest.raises(InternalInvariantError):
            report.raise_if_failed()

    def test_detects_a_booking_beside_a_confirmed_reservation(self):
        gw = Gateway(platform(), num_shards=2)
        assert gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0).confirmed
        gw.brokers[0].book_pair(0, 0, ((0.0, 10.0, 50.0),))  # behind the gateway's back
        report = check_gateway(gw, now=0.0)
        assert not report.ok
        assert any("ledger carries" in v for v in report.violations)

    def test_detects_zombie_hold(self):
        gw = Gateway(platform(), num_shards=2, hold_ttl=50.0)
        gw.brokers[0].prepare("ingress", 0, ((0.0, 10.0, 5.0),), rid=99, expires=10.0, key=(99, "i"))
        report = check_gateway(gw, now=60.0)
        assert any("zombie hold" in v for v in report.violations)

    def test_hand_corrupted_slices_are_still_caught(self):
        def busy():
            gw = Gateway(platform(), num_shards=2, batch_size=2)
            for k in range(12):
                gw.submit(ingress=k % 4, egress=(k + 1) % 4, volume=50.0 + k, deadline=80.0, now=float(k))
            gw.drain(12.0)
            assert check_gateway(gw).ok
            return gw

        # A booking a shade too fat, a phantom trailing the port's last
        # booking, a missing booking.
        allocations = [x.allocation for x in busy().reservations() if x.confirmed]
        r = allocations[3]
        last = max(a.tau for a in allocations if a.ingress == r.ingress)
        for t0, t1, delta in ((r.sigma, r.tau, 0.25), (last, last + 5.0, 1.0), (r.sigma, r.tau, -r.bw)):
            gw = busy()
            broker = gw.coordinator.broker_for("ingress", r.ingress)
            if delta > 0:
                broker.restore("ingress", r.ingress, ((t0, t1, delta),))
            else:
                broker.release("ingress", r.ingress, ((t0, t1, -delta),))
            report = check_gateway(gw)
            assert [v for v in report.violations if f"ingress port {r.ingress}" in v], (t0, t1)
            assert len(report.violations) == 1  # one port, one report

    def test_overcommit_is_audited_at_each_ports_own_slack(self):
        """5e-7 MB/s over a 10 MB/s port is 50x that port's slack; one
        platform-wide tolerance (1e-9 x 1000 MB/s) used to let it pass."""
        gw = Gateway(Platform([10.0, 1000.0], [10.0, 1000.0]), num_shards=2)
        ticket = gw.submit(ingress=0, egress=0, volume=100.0, deadline=10.0, now=0.0)
        assert ticket.confirmed and ticket.allocation.bw == 10.0
        broker = gw.coordinator.broker_for("ingress", 0)
        broker.restore("ingress", 0, ((0.0, 10.0, 5e-7),))
        violations = check_gateway(gw, now=0.0).violations
        assert [v for v in violations if "ingress port 0 usage exceeds capacity" in v]
        # Reconciliation prints the discrepancy, not two equal-looking rates.
        assert [v for v in violations if "(off by +5e-07)" in v]

    def test_reconciliation_is_one_sweep_per_port(self):
        gw = Gateway(Platform.uniform(16, 16, 1000.0), num_shards=4, batch_size=8)
        rng = random.Random(2)
        t = 0.0
        for _ in range(20_000):
            t += rng.expovariate(1.0)
            gw.submit(
                ingress=rng.randrange(16),
                egress=rng.randrange(16),
                volume=rng.uniform(50.0, 400.0),
                deadline=t + rng.uniform(20.0, 60.0),
                now=t,
            )
        gw.drain(t)
        assert gw.stats.accepted > 19_000
        started = time.perf_counter()
        report = check_gateway(gw, expect_quiesced=True)
        elapsed = time.perf_counter() - started
        assert report.ok and report.checks["reservations"] == 20_000
        assert elapsed < 1.0, f"auditing 20k reservations took {elapsed:.2f}s"

    def test_quiesced_gateway_must_hold_nothing(self):
        gw = Gateway(platform(), num_shards=2)
        gw.brokers[0].prepare("ingress", 0, ((0.0, 10.0, 5.0),), rid=99, expires=1e9, key=(99, "i"))
        assert check_gateway(gw, now=0.0).ok  # within TTL: fine mid-flight
        report = check_gateway(gw, now=0.0, expect_quiesced=True)
        assert any("quiesced" in v for v in report.violations)

    def test_detects_replay_divergence(self):
        journal = Journal()
        gw = Gateway(platform(), num_shards=2, journal=journal)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        gw.brokers[0].release("ingress", 0, ((0.0, 10.0, 1.0),))  # un-journaled mutation
        report = check_gateway(gw, journal=journal, now=0.0)
        assert any("replay diverges" in v for v in report.violations)


class TestChaosOffEquivalence:
    """Chaos disabled books directly; a zero policy runs the protocol and
    injects nothing.  Both must reach the same state — the brokers'
    protocol records (``resolved`` / ``prepared``) exist only where the
    protocol ran."""

    def drive(self, gw):
        workload = sorted(chaotic_workload(17, n=25, ports=4), key=lambda r: r.t_start)
        for request in workload:
            gw.submit(
                ingress=request.ingress,
                egress=request.egress,
                volume=request.volume,
                deadline=request.t_end,
                now=request.t_start,
                max_rate=request.max_rate,
            )
        gw.drain(500.0)

    def decisions(self, gw):
        return [
            (r.rid, r.confirmed, r.reject_reason,
             None if r.allocation is None else (r.allocation.sigma, r.allocation.tau, r.allocation.bw))
            for r in gw.reservations()
        ]

    @pytest.mark.parametrize("shards,batch", [(1, 1), (2, 2), (4, 3)])
    def test_none_and_zero_policy_are_identical(self, shards, batch):
        j_none, j_zero = Journal(), Journal()
        gw_none = Gateway(platform(), num_shards=shards, batch_size=batch, journal=j_none)
        gw_zero = Gateway(
            platform(),
            num_shards=shards,
            batch_size=batch,
            chaos=ChaosPolicy(seed=123),
            journal=j_zero,
        )
        self.drive(gw_none)
        self.drive(gw_zero)
        assert self.decisions(gw_none) == self.decisions(gw_zero)
        assert vars(gw_none.stats) == vars(gw_zero.stats)
        snap_none, snap_zero = gw_none.snapshot(), gw_zero.snapshot()
        assert without_protocol_records(snap_none) == without_protocol_records(snap_zero)
        assert all(s["resolved"] == {} and s["prepared"] == {} for s in snap_none["shards"])
        if shards > 1:
            assert any(s["resolved"] and s["prepared"] for s in snap_zero["shards"])
        # Same journal bytes below the header (which names the policy).
        assert j_none.to_jsonl().split("\n", 1)[1] == j_zero.to_jsonl().split("\n", 1)[1]
        assert j_none.header.pop("chaos") is None and j_zero.header.pop("chaos") is not None
        assert j_none.header == j_zero.header

    def test_chaos_off_leaves_edge_channel_counters_untouched(self):
        telemetry = Telemetry()
        gw = Gateway(platform(), num_shards=2, batch_size=2, telemetry=telemetry)
        self.drive(gw)
        channel_metrics = [
            n for n in telemetry.metrics.names() if n.startswith("gateway_channel_")
        ]
        assert channel_metrics == []

    def test_zero_policy_publishes_only_genuine_deliveries(self):
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy(seed=0),
            telemetry=telemetry,
        )
        self.drive(gw)
        deliveries = telemetry.metrics.get("gateway_channel_deliveries_total")
        assert deliveries is not None and deliveries.total() > 0
        # Every sample is labeled with its coordinator→broker edge.
        assert all("shard" in labels for labels, _ in deliveries.samples())
        # No fault-class counter ever registers under a zero policy: the
        # publication is delta-based, so the metrics simply never appear.
        fault_metrics = [
            n
            for n in telemetry.metrics.names()
            if n.startswith("gateway_channel_")
            and n != "gateway_channel_deliveries_total"
        ]
        assert fault_metrics == []

    def test_lossy_chaos_surfaces_labeled_edge_counters(self):
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy.lossy(seed=4),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=120.0,
            backlog_limit=4,
            telemetry=telemetry,
        )
        self.drive(gw)
        assert gw.stats.chaos_drops > 0
        dropped = telemetry.metrics.get("gateway_channel_dropped_total")
        assert dropped is not None and dropped.total() > 0
        shards = {labels["shard"] for labels, _ in dropped.samples()}
        assert shards <= {"0", "1"} and shards

    def test_chaotic_journal_replay_converges(self):
        journal = Journal()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy.lossy(seed=4),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=120.0,
            backlog_limit=4,
            journal=journal,
        )
        self.drive(gw)
        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == gw.snapshot()
        assert journal.header["chaos"] == ChaosPolicy.lossy(seed=4).to_dict()


class TestChaosMetrics:
    """What ``/metrics`` counts under chaos equals what the gateway counted."""

    #: Per-shard channel family of each ``gateway_chaos_<name>_total``.
    FAMILIES = {
        "drops": "gateway_channel_dropped_total",
        "duplicates": "gateway_channel_duplicated_total",
        "delays": "gateway_channel_delayed_total",
        "partitioned": "gateway_channel_partitioned_total",
        "crashes": "gateway_channel_crashes_total",
    }

    @staticmethod
    def total(telemetry, name):
        metric = telemetry.metrics.get(name)
        return 0.0 if metric is None else metric.total()

    @staticmethod
    def submit_all(gw, requests):
        for request in requests:
            gw.submit(
                ingress=request.ingress,
                egress=request.egress,
                volume=request.volume,
                deadline=request.t_end,
                now=request.t_start,
                max_rate=request.max_rate,
            )

    def test_retries_and_aborts_of_readmissions_are_counted(self):
        telemetry = Telemetry()
        gw = Gateway(
            platform(8, 200.0),
            num_shards=4,
            batch_size=4,
            chaos=ChaosPolicy(seed=2, default=EdgeChaos(drop=0.4)),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=120.0,
            backlog_limit=8,
            hold_ttl=60.0,
            telemetry=telemetry,
        )
        self.submit_all(gw, sorted(chaotic_workload(2, n=60), key=lambda r: r.t_start))
        for _ in range(8):
            gw.drain(gw.now + 61.0)
        assert gw.stats.readmitted > 0 and gw.stats.twophase_aborts > 0
        assert self.total(telemetry, "gateway_prepare_retries_total") == gw.stats.prepare_retries
        assert self.total(telemetry, "gateway_twophase_aborts_total") == gw.stats.twophase_aborts

    @pytest.mark.parametrize("restart", ["checkpoint", "replay", "older-checkpoint"])
    def test_edge_counters_count_only_what_follows_a_restart(self, restart, tmp_path):
        """Each per-shard family, summed over shards, equals its chaos total
        and holds only the deliveries after the restart.  The older
        checkpoint was written while one still carried ``chaos_seen`` and
        the brokers' ``holds_expired``; it is the first life below."""
        chaos = ChaosPolicy.lossy(seed=4, drop=0.4)
        config = dict(
            num_shards=2,
            batch_size=2,
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=120.0,
            backlog_limit=4,
        )
        workload = sorted(chaotic_workload(17, n=40, ports=4), key=lambda r: r.t_start)
        path = tmp_path / "wal.jsonl"
        if restart == "older-checkpoint":
            shutil.copy(DATA / "checkpoint_chaos_seen.jsonl", path)
            assert "chaos_seen" in json.loads(path.read_text().splitlines()[-1])["state"]
        else:
            gw = Gateway(platform(4, 200.0), chaos=chaos, journal=Journal(path=path), **config)
            self.submit_all(gw, [r for r in workload if r.t_start < 200.0])
            gw.drain(200.0)
            if restart == "checkpoint":
                gw.checkpoint()
            gw.journal.close()
        journal = Journal.load(path)
        assert journal.has_checkpoint() == (restart != "replay")
        telemetry = Telemetry()
        resumed = Gateway.resume(journal, telemetry=telemetry)
        assert resumed.snapshot() == Gateway.replay(journal).snapshot()
        assert "chaos_seen" not in resumed.dump_state()
        before = {name: getattr(resumed.stats, f"chaos_{name}") for name in self.FAMILIES}
        self.submit_all(resumed, [r for r in workload if r.t_start >= 200.0])
        resumed.drain(resumed.now + 1.0)
        journal.close()
        assert before["drops"] > 0 and resumed.stats.chaos_drops > before["drops"]
        for name, family in self.FAMILIES.items():
            after = getattr(resumed.stats, f"chaos_{name}") - before[name]
            assert self.total(telemetry, f"gateway_chaos_{name}_total") == after, name
            assert self.total(telemetry, family) == after, name


    @pytest.mark.parametrize("restart", ["checkpoint", "replay"])
    def test_a_rebuild_reports_nothing_to_the_process_wide_handle(self, restart):
        """Replayed history already happened: checking a gateway against its
        journal and resuming the journal, with or without a checkpoint, leave
        no gateway or booking family on an enabled process-wide handle."""
        gw = Gateway(
            platform(4, 60.0),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy.lossy(seed=4, drop=0.4),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=120.0,
            backlog_limit=4,
            journal=Journal(),
        )
        workload = sorted(chaotic_workload(17, n=40, ports=4), key=lambda r: r.t_start)
        self.submit_all(gw, workload)
        gw.drain(gw.now + 1.0)
        if restart == "checkpoint":
            gw.checkpoint()
        # Searches ran, and some failed: the booking layer had counts to leak.
        assert gw.stats.accepted > 0 and gw.stats.rejected > 0
        with use_telemetry(Telemetry()) as ambient:
            assert check_gateway(gw, journal=gw.journal).ok
            resumed = Gateway.resume(gw.journal)
        assert resumed.snapshot() == gw.snapshot()
        leaked = [name for name in ambient.metrics.names() if name.startswith(("gateway_", "booking_"))]
        assert leaked == []


class TestChaosMatrix:
    def test_matrix_is_invariant_clean(self):
        report = run_chaos_matrix(
            platform(8),
            lambda seed: chaotic_workload(seed, n=24),
            seeds=[101, 202, 303, 404],
            scenarios=CHAOS_SCENARIOS,
            horizon=600.0,
        )
        assert len(report.cells) == 4 * len(CHAOS_SCENARIOS)
        assert report.ok, report.violations[:5]
        by_scenario = {}
        for cell in report.cells:
            by_scenario.setdefault(cell["scenario"], []).append(cell)
        # The scenarios genuinely bite: chaos counters move where they must.
        assert all(c["chaos_drops"] == 0 for c in by_scenario["clean"])
        assert any(c["chaos_drops"] > 0 for c in by_scenario["lossy"])
        assert any(c["chaos_partitioned"] > 0 for c in by_scenario["partition"])
        assert any(c["chaos_duplicates"] > 0 for c in by_scenario["duplicate-storm"])
        assert any(c["chaos_crashes"] > 0 for c in by_scenario["crash-mid-2pc"])
        assert any(c["readmitted"] > 0 for c in report.cells)
        doc = report.to_dict()
        assert doc["ok"] is True and len(doc["cells"]) == len(report.cells)

    def test_matrix_cells_carry_slo_verdicts(self):
        report = run_chaos_matrix(
            platform(8),
            lambda seed: chaotic_workload(seed, n=16),
            seeds=[0],
            scenarios=["clean", "lossy"],
            horizon=600.0,
            tracing=True,
        )
        assert report.ok
        for cell in report.cells:
            verdict = cell["slo"]
            assert set(verdict) >= {"ok", "breaches", "rules"}
            assert verdict["rules"], "every cell evaluates a non-empty rule set"
        assert report.slo_ok == all(c["slo"]["ok"] for c in report.cells)
        doc = report.to_dict()
        assert doc["slo_ok"] == report.slo_ok
        # Tracing captured one telemetry handle per cell under a stable label.
        assert report.telemetry is not None
        labels = {c["label"] for c in report.telemetry.captures()}
        assert labels == {"seed=0/clean", "seed=0/lossy"}

    def test_drill_accepts_chaos_parameters(self):
        gw = Gateway(
            platform(8),
            num_shards=4,
            batch_size=2,
            chaos=ChaosPolicy.lossy(seed=7),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=90.0,
            backlog_limit=4,
        )
        run_fault_drill(gw, chaotic_workload(7, n=16), restart_sweep=100.0, seed=7)
        assert gw.stats.submits >= 16  # arrivals (+ any readmissions)
        assert check_gateway(gw, now=gw.now).ok

    def test_restart_sweep_validation(self):
        with pytest.raises(ConfigurationError):
            run_fault_drill(Gateway(platform()), chaotic_workload(1, n=2), restart_sweep=0.0)
