"""Tests for the default gateway as the client-facing reservation service (§5.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, InvalidRequestError, Platform
from repro.core.booking import RejectReason
from repro.gateway import Gateway, ReservationState
from repro.obs import NullTelemetry, Telemetry, get_telemetry, use_telemetry
from repro.schedulers import FractionOfMaxPolicy


@pytest.fixture
def service():
    return Gateway(Platform.uniform(2, 2, 100.0))


class TestSubmit:
    def test_confirms_feasible(self, service):
        r = service.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        assert r.confirmed
        assert r.allocation.bw == pytest.approx(10.0)  # MinRate policy
        assert r.state(0.0) == ReservationState.ACTIVE
        assert r.state(200.0) == ReservationState.COMPLETED

    def test_default_max_rate_is_bottleneck(self, service):
        r = service.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        assert r.request.max_rate == pytest.approx(100.0)

    def test_books_ahead_when_busy(self):
        service = Gateway(
            Platform.uniform(2, 2, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        first = service.submit(ingress=0, egress=1, volume=1000.0, deadline=1000.0, now=0.0)
        assert first.allocation.tau == pytest.approx(10.0)
        second = service.submit(ingress=0, egress=1, volume=1000.0, deadline=1000.0, now=1.0)
        assert second.confirmed
        assert second.allocation.sigma == pytest.approx(10.0)  # waits for the port
        assert second.state(5.0) == ReservationState.CONFIRMED

    def test_rejects_infeasible(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        r = service.submit(ingress=0, egress=0, volume=1000.0, deadline=12.0, now=1.0)
        assert not r.confirmed
        assert r.state(1.0) == ReservationState.REJECTED

    def test_malformed_submission_raises(self, service):
        with pytest.raises(InvalidRequestError):
            service.submit(ingress=0, egress=1, volume=-5.0, deadline=10.0, now=0.0)

    def test_clock_monotonic(self, service):
        service.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=50.0)
        with pytest.raises(ConfigurationError):
            service.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=10.0)


class TestCancel:
    def test_cancel_frees_capacity_for_next(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        first = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=200.0, now=0.0)
        assert first.confirmed  # occupies the port until t = 100
        blocked = service.submit(ingress=0, egress=0, volume=9_000.0, deadline=95.0, now=1.0)
        assert not blocked.confirmed
        assert service.cancel(first.rid, now=2.0)
        retry = service.submit(ingress=0, egress=0, volume=9_000.0, deadline=95.0, now=3.0)
        assert retry.confirmed

    def test_cancel_mid_transfer_releases_remainder(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        r = service.submit(ingress=0, egress=0, volume=10_000.0, deadline=200.0, now=0.0)
        assert service.cancel(r.rid, now=50.0)
        assert r.state(60.0) == ReservationState.CANCELLED
        # the tail [50, 100) is free again
        ins, _ = service.port_usage(75.0)
        assert ins[0] == pytest.approx(0.0)
        # but the consumed part [0, 50) stays accounted
        ins, _ = service.port_usage(25.0)
        assert ins[0] == pytest.approx(100.0)

    def test_cancel_completed_is_noop(self, service):
        r = service.submit(ingress=0, egress=1, volume=100.0, deadline=10.0, now=0.0)
        assert not service.cancel(r.rid, now=20.0)

    def test_cancel_rejected_is_noop(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        r = service.submit(ingress=0, egress=0, volume=1000.0, deadline=11.0, now=1.0)
        assert not r.confirmed
        assert not service.cancel(r.rid, now=2.0)

    def test_double_cancel(self, service):
        r = service.submit(ingress=0, egress=1, volume=1000.0, deadline=500.0, now=0.0)
        assert service.cancel(r.rid, now=1.0)
        assert not service.cancel(r.rid, now=2.0)

    def test_unknown_rid(self, service):
        with pytest.raises(KeyError):
            service.cancel(999, now=0.0)
        with pytest.raises(KeyError):
            service.get(999)


class TestInspection:
    def test_accept_rate_and_listing(self, service):
        service.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        service.submit(ingress=1, egress=0, volume=100.0, deadline=100.0, now=1.0)
        assert service.accept_rate() == 1.0
        assert [r.rid for r in service.reservations()] == [0, 1]

    def test_empty_accept_rate(self, service):
        assert service.accept_rate() == 0.0

    def test_deadline_at_zero_accepts_exact_fit(self, service):
        # regression: tau overshoots t_end=0 by a few ulp; the old relative
        # tolerance (t_end * (1 + 1e-12) == 0) rejected the request
        r = service.submit(ingress=0, egress=1, volume=3.3, deadline=0.0, now=-0.1)
        assert r.confirmed
        assert r.allocation.tau <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["submit", "cancel"]),
            st.floats(1.0, 50.0, allow_nan=False),   # dt
            st.floats(100.0, 50_000.0, allow_nan=False),  # volume
            st.integers(0, 1),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_service_never_overcommits(ops):
    """Property: any submit/cancel interleaving keeps ports within capacity."""
    service = Gateway(Platform.uniform(2, 2, 100.0))
    now = 0.0
    confirmed: list[int] = []
    for op, dt, volume, ingress, egress in ops:
        now += dt
        if op == "submit" or not confirmed:
            r = service.submit(
                ingress=ingress, egress=egress, volume=volume, deadline=now + 600.0, now=now
            )
            if r.confirmed:
                confirmed.append(r.rid)
        else:
            service.cancel(confirmed.pop(0), now=now)
    assert service.max_overcommit() <= 1e-6


class TestRejectReasons:
    def test_capacity_rejection_names_ingress(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        r = service.submit(ingress=0, egress=0, volume=1000.0, deadline=12.0, now=1.0)
        assert not r.confirmed
        # uniform platform: both sides equally full, ingress reported first
        assert r.reject_reason is RejectReason.INGRESS_FULL

    def test_capacity_rejection_names_egress(self):
        # two wide ingress ports funnel into one narrow egress
        service = Gateway(
            Platform([100.0, 100.0], [50.0]), policy=FractionOfMaxPolicy(1.0)
        )
        service.submit(ingress=0, egress=0, volume=500.0, deadline=100.0, now=0.0)
        r = service.submit(ingress=1, egress=0, volume=500.0, deadline=11.0, now=1.0)
        assert not r.confirmed
        assert r.reject_reason is RejectReason.EGRESS_FULL

    def test_accepted_reservation_has_no_reason(self, service):
        r = service.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        assert r.confirmed
        assert r.reject_reason is None

    def test_reject_reason_survives_snapshot(self):
        service = Gateway(
            Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
        )
        service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
        service.submit(ingress=0, egress=0, volume=1000.0, deadline=12.0, now=1.0)
        snap = service.snapshot()
        reasons = [entry["reject_reason"] for entry in snap["reservations"]]
        assert reasons == [None, "ingress-full"]


class TestServiceTelemetry:
    def test_ctor_handle_overrides_global(self):
        tel = Telemetry()
        service = Gateway(Platform.uniform(2, 2, 100.0), telemetry=tel)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        submits = tel.metrics.counter("gateway_submits_total")
        assert submits.value(outcome="accepted") == 1.0
        # the process-wide handle stays the inert default
        assert isinstance(get_telemetry(), NullTelemetry)
        assert get_telemetry().is_empty()

    def test_global_handle_used_when_ctor_omitted(self):
        tel = Telemetry()
        with use_telemetry(tel):
            service = Gateway(
                Platform.uniform(1, 1, 100.0), policy=FractionOfMaxPolicy(1.0)
            )
            service.submit(ingress=0, egress=0, volume=1000.0, deadline=100.0, now=0.0)
            service.submit(ingress=0, egress=0, volume=1000.0, deadline=12.0, now=1.0)
        submits = tel.metrics.counter("gateway_submits_total")
        assert submits.value(outcome="accepted") == 1.0
        assert submits.value(outcome="rejected") == 1.0
        rejects = tel.metrics.counter("gateway_rejects_total")
        assert rejects.value(reason="ingress-full") == 1.0
        decisions = [e.name for e in tel.events if e.name != "gateway.batch"]
        assert decisions == ["gateway.submit", "gateway.submit"]

    def test_lifecycle_counters(self):
        tel = Telemetry()
        service = Gateway(Platform.uniform(2, 2, 100.0), telemetry=tel)
        r = service.submit(ingress=0, egress=1, volume=1000.0, deadline=100.0, now=0.0)
        service.cancel(r.rid, now=1.0)
        assert tel.metrics.counter("gateway_cancels_total").total() == 1.0
        names = [e.name for e in tel.events if e.name != "gateway.batch"]
        assert names == ["gateway.submit", "gateway.cancel"]
