"""Tests for online fault injection and the recovery control plane."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import FaultInjector, PortFault, run_fault_drill
from repro.core import ConfigurationError, Platform, Request, verify_schedule
from repro.gateway import Gateway, Journal, ReservationState
from repro.metrics import FaultStats
from repro.schedulers import BackoffSchedule, FractionOfMaxPolicy
from repro.sim import Simulator


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


class TestFaultValidation:
    def test_port_fault_rejects_bad_side(self):
        with pytest.raises(ConfigurationError):
            PortFault(side="middle", port=0, amount=10.0, start=0.0, end=1.0)

    def test_port_fault_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            PortFault(side="ingress", port=0, amount=10.0, start=5.0, end=5.0)

    def test_port_fault_rejects_nonpositive_amount(self):
        with pytest.raises(ConfigurationError):
            PortFault(side="ingress", port=0, amount=0.0, start=0.0, end=1.0)

    def test_outage_takes_whole_capacity(self):
        fault = PortFault.outage("egress", 1, 80.0, 10.0, 20.0)
        assert fault.amount == 80.0

    def test_drill_rejects_bad_abort_rate(self, platform):
        with pytest.raises(ConfigurationError):
            run_fault_drill(Gateway(platform), [], abort_rate=1.5)


class TestBackoffSchedule:
    def test_exponential_growth(self):
        sched = BackoffSchedule(base=10.0, multiplier=2.0, max_attempts=4)
        assert sched.delay(1) == pytest.approx(10.0)
        assert sched.delay(2) == pytest.approx(20.0)
        assert sched.delay(3) == pytest.approx(40.0)

    def test_jitter_stretches_delay(self):
        sched = BackoffSchedule(base=10.0, multiplier=1.0, jitter=0.5)
        rng = random.Random(7)
        delays = {sched.delay(1, rng) for _ in range(20)}
        assert len(delays) > 1
        assert all(10.0 <= d <= 15.0 for d in delays)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffSchedule(base=-1.0)
        with pytest.raises(ConfigurationError):
            BackoffSchedule(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            BackoffSchedule(jitter=-0.1)


class TestAbort:
    def test_abort_frees_tail_and_accounts_waste(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=200.0, now=0.0)
        assert service.abort(r.rid, now=40.0)
        assert r.state(50.0) == ReservationState.ABORTED
        assert r.carried == pytest.approx(4000.0)
        assert r.residual == pytest.approx(6000.0)
        stats = FaultStats.of(service)
        assert stats.aborted == 1
        assert stats.wasted_volume == pytest.approx(4000.0)
        assert stats.freed_volume == pytest.approx(6000.0)
        # the tail [40, 100) is bookable again
        ins, _ = service.port_usage(70.0)
        assert ins[0] == pytest.approx(0.0)

    def test_abort_terminated_is_noop(self, platform):
        service = Gateway(platform)
        r = service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        assert service.cancel(r.rid, now=1.0)
        assert not service.abort(r.rid, now=2.0)
        assert service.stats.aborted == 0

    def test_abort_unknown_raises(self, platform):
        with pytest.raises(KeyError):
            Gateway(platform).abort(99, now=0.0)


class TestDegrade:
    def test_degrade_without_conflict_displaces_nothing(self, platform):
        service = Gateway(platform)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        displaced = service.degrade(
            side="ingress", port=1, amount=100.0, start=0.0, end=50.0, now=0.0
        )
        assert displaced == []
        assert service.stats.degradations == 1
        assert service.max_overcommit() <= 1e-9

    def test_outage_displaces_latest_start_first(self):
        service = Gateway(
            Platform.uniform(1, 2, 100.0), policy=FractionOfMaxPolicy(0.5)
        )
        early = service.submit(ingress=0, egress=0, volume=5_000.0, deadline=400.0, now=0.0)
        late = service.submit(ingress=0, egress=0, volume=5_000.0, deadline=400.0, now=1.0)
        assert early.allocation.sigma < late.allocation.sigma or (
            early.allocation.sigma == late.allocation.sigma and early.rid < late.rid
        )
        # halve the ingress: only one 50 MB/s stream still fits
        displaced = service.degrade(
            side="ingress", port=0, amount=50.0, start=2.0, end=200.0, now=2.0
        )
        assert [r.rid for r in displaced] == [late.rid]
        assert late.state(3.0) == ReservationState.DISPLACED
        assert late.displaced_at == 2.0
        assert early.state(3.0) == ReservationState.ACTIVE
        assert service.max_overcommit() <= 1e-9
        assert service.stats.displaced == 1

    def test_displaced_checkpoints_carried_volume(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=200.0, now=0.0)
        service.degrade(side="egress", port=0, amount=100.0, start=30.0, end=60.0, now=30.0)
        assert r.state(31.0) == ReservationState.DISPLACED
        assert r.carried == pytest.approx(3000.0)
        assert r.residual == pytest.approx(7000.0)

    def test_degraded_window_rejects_new_load(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        service.degrade(side="ingress", port=0, amount=100.0, start=0.0, end=50.0, now=0.0)
        r = service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        assert r.confirmed
        assert r.allocation.sigma >= 50.0 - 1e-9  # booked after the outage


class TestRebooking:
    def test_injector_rebooks_displaced_residual(self):
        sim = Simulator()
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        injector = FaultInjector(
            sim, service, rebook=BackoffSchedule(base=5.0, multiplier=2.0)
        )
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=400.0, now=0.0)
        injector.schedule_fault(
            PortFault.outage("egress", 0, 100.0, start=20.0, end=50.0)
        )
        sim.run()
        assert r.state(sim.now) == ReservationState.DISPLACED
        rebooks = [x for x in service.reservations() if x.origin == r.rid]
        assert len(rebooks) == 1
        assert rebooks[0].confirmed
        assert rebooks[0].request.volume == pytest.approx(8000.0)  # residual
        assert rebooks[0].allocation.sigma >= 25.0 - 1e-9  # first retry at 20+5
        stats = FaultStats.of(service)
        assert stats.rebook_attempts == 1
        assert stats.rebooked == 1
        assert stats.rebook_rate == 1.0
        assert service.accept_rate() == 1.0  # the rebooking serves the original

    def test_rebooking_backs_off_until_capacity_frees(self):
        sim = Simulator()
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        injector = FaultInjector(
            sim, service, rebook=BackoffSchedule(base=5.0, multiplier=2.0)
        )
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=170.0, now=0.0)
        rival = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=300.0, now=1.0)
        assert rival.allocation.sigma == pytest.approx(100.0)
        injector.schedule_fault(
            PortFault.outage("ingress", 0, 100.0, start=20.0, end=40.0)
        )
        # attempt 1 (t=25) finds no 80 s slot before the deadline; the rival's
        # cancellation at t=30 frees one for attempt 2 (t=35)
        sim.at(30.0, lambda event: service.cancel(rival.rid, now=sim.now))
        sim.run()
        rebooks = [x for x in service.reservations() if x.origin == r.rid]
        assert rebooks and rebooks[-1].confirmed
        assert rebooks[-1].allocation.sigma >= 40.0 - 1e-9  # after the outage
        stats = FaultStats.of(service)
        assert stats.rebook_attempts == 2  # one failed try, then success
        assert stats.rebooked == 1

    def test_rebooking_gives_up_on_dead_deadline(self):
        sim = Simulator()
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        injector = FaultInjector(
            sim, service, rebook=BackoffSchedule(base=5.0, multiplier=2.0)
        )
        # outage covers the rest of the window: the residual can never fit
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=100.0, now=0.0)
        injector.schedule_fault(PortFault.outage("egress", 0, 100.0, start=50.0, end=100.0))
        sim.run()
        assert r.state(sim.now) == ReservationState.DISPLACED
        assert all(x.origin != r.rid for x in service.reservations())

    def test_maybe_abort_only_hits_live_window(self):
        sim = Simulator()
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        injector = FaultInjector(sim, service, seed=3)
        r = service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        fault = injector.maybe_abort(r, abort_rate=1.0)
        assert fault is not None
        assert r.allocation.sigma <= fault.at < r.allocation.tau
        # rejected reservations can't abort
        bad = service.submit(ingress=0, egress=0, volume=9000.0, deadline=95.0, now=1.0)
        assert not bad.confirmed
        assert injector.maybe_abort(bad, abort_rate=1.0) is None


class TestFaultStatsView:
    def test_readmission_is_read_off_the_origin_link(self):
        """A broker-down rejection parked and re-admitted after the restart
        counts as re-admitted volume, not as a rebooking."""
        gateway = Gateway(Platform.uniform(2, 2, 100.0), num_shards=2, backlog_limit=4)
        gateway.crash_broker(0, now=0.0)
        parked = gateway.submit(ingress=0, egress=1, volume=500.0, deadline=100.0, now=0.0)
        assert not parked.confirmed
        gateway.restart_broker(0, now=10.0)
        stats = FaultStats.of(gateway)
        assert (stats.backlogged, stats.readmitted) == (1, 1)
        assert stats.readmitted_volume == pytest.approx(500.0)
        assert stats.readmission_rate == 1.0
        assert (stats.rebook_attempts, stats.recovered_volume) == (0, 0.0)
        assert gateway.accept_rate() == 1.0  # the re-admission serves the original


def _workload(rng, platform, n):
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, 300.0)
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(platform.num_ingress),
                egress=rng.randrange(platform.num_egress),
                volume=rng.uniform(500.0, 8000.0),
                t_start=t0,
                t_end=t0 + rng.uniform(120.0, 400.0),
                max_rate=100.0,
            )
        )
    return requests


class TestFaultDrill:
    """End-to-end acceptance drill: outage + mid-flight aborts + recovery."""

    def test_drill_recovers_and_replays(self):
        platform = Platform.uniform(3, 3, 100.0)
        requests = _workload(random.Random(11), platform, 60)
        journal = Journal()
        service = Gateway(platform, journal=journal)
        report = run_fault_drill(
            service,
            requests,
            abort_rate=0.3,
            faults=[PortFault.outage("egress", 0, 100.0, start=150.0, end=260.0)],
            rebook=BackoffSchedule(base=10.0, multiplier=2.0, jitter=0.25),
            seed=5,
        )
        stats = FaultStats.of(service)

        # the drill actually exercised the machinery (an abort scheduled on
        # an already-displaced reservation is a no-op, hence <=)
        assert stats.aborted >= 5
        assert stats.aborted <= len(report.aborts)
        assert stats.degradations == 1
        assert stats.displaced >= 1
        assert stats.wasted_volume > 0.0
        assert stats.freed_volume > 0.0

        # displaced residuals were rebooked with backoff
        assert stats.rebook_attempts >= 1
        for r in service.reservations():
            if r.origin is None or not r.confirmed:
                continue
            parent = service.get(r.origin)
            if parent.terminated_at is None:
                continue  # not the rebooking of a terminated reservation
            assert r.request.volume == pytest.approx(parent.residual)
            assert r.allocation.sigma >= parent.terminated_at

        # Eq. 1 holds under the degraded capacities, and the surviving
        # schedule passes the ground-truth checker
        assert service.max_overcommit() <= 1e-6
        surviving, result = service.surviving_schedule()
        verify_schedule(
            platform,
            surviving,
            result,
            enforce_window=False,  # rebooked windows open at the rebook time
            degradations=service.degradations(),
        )

        # crash recovery: replaying the journal rebuilds identical state
        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == service.snapshot()

    def test_drill_without_faults_matches_plain_service(self):
        platform = Platform.uniform(2, 2, 100.0)
        requests = _workload(random.Random(3), platform, 20)
        report = run_fault_drill(Gateway(platform), requests)
        assert report.aborts == []
        assert report.plane.stats.aborted == 0
        assert report.plane.max_overcommit() <= 1e-6


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["submit", "cancel", "abort", "degrade"]),
            st.floats(1.0, 40.0, allow_nan=False),        # dt
            st.floats(100.0, 30_000.0, allow_nan=False),  # volume / 100*amount
            st.integers(0, 1),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_faulty_interleavings_never_overcommit(ops):
    """Property: submit/cancel/abort/degrade keeps Eq. 1 under time-varying
    capacity, and the surviving schedule always verifies."""
    platform = Platform.uniform(2, 2, 100.0)
    service = Gateway(platform)
    now = 0.0
    live: list[int] = []
    for op, dt, volume, a, b in ops:
        now += dt
        if op == "submit" or (op in ("cancel", "abort") and not live):
            r = service.submit(
                ingress=a, egress=b, volume=volume, deadline=now + 600.0, now=now
            )
            if r.confirmed:
                live.append(r.rid)
        elif op == "cancel":
            service.cancel(live.pop(0), now=now)
        elif op == "abort":
            service.abort(live.pop(), now=now)
        else:  # degrade; windows always open at the current clock
            side = "ingress" if a == 0 else "egress"
            service.degrade(
                side=side,
                port=b,
                amount=min(volume / 100.0, 100.0),
                start=now,
                end=now + dt + 10.0,
                now=now,
            )
            live = [
                rid
                for rid in live
                if service.get(rid).state(now)
                in (ReservationState.CONFIRMED, ReservationState.ACTIVE)
            ]
    assert service.max_overcommit() <= 1e-6
    surviving, result = service.surviving_schedule()
    verify_schedule(
        platform,
        surviving,
        result,
        enforce_window=False,
        degradations=service.degradations(),
    )
