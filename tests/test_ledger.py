"""Tests for PortLedger capacity bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CapacityError, ConfigurationError, Degradation, Platform, PortLedger


@pytest.fixture
def ledger():
    return PortLedger(Platform([100.0, 50.0], [100.0, 80.0]))


def capacity_at(ledger, side, port, t):
    """A port's effective capacity at ``t``: what the (empty) port has free
    over the half second from ``t`` on."""
    return ledger.free_capacity(side, port, t, t + 0.5)


class TestFitsAllocate:
    def test_fits_empty(self, ledger):
        assert ledger.fits(0, 0, 0.0, 10.0, 100.0)
        assert not ledger.fits(0, 0, 0.0, 10.0, 101.0)

    def test_egress_constrains(self, ledger):
        assert ledger.fits(0, 1, 0.0, 10.0, 80.0)
        assert not ledger.fits(0, 1, 0.0, 10.0, 81.0)

    def test_allocate_reduces_headroom(self, ledger):
        ledger.allocate(0, 0, 0.0, 10.0, 60.0)
        assert not ledger.fits(0, 0, 5.0, 15.0, 50.0)
        assert ledger.fits(0, 0, 5.0, 15.0, 40.0)
        # disjoint in time: full capacity again
        assert ledger.fits(0, 0, 10.0, 20.0, 100.0)

    def test_allocate_overflow_raises(self, ledger):
        with pytest.raises(CapacityError):
            ledger.allocate(0, 0, 0.0, 10.0, 150.0)
        # failed allocate leaves ledger untouched
        assert ledger.ingress_timeline(0).is_zero() and ledger.egress_timeline(0).is_zero()

    def test_unchecked_allocate(self, ledger):
        ledger.allocate(0, 0, 0.0, 10.0, 150.0, check=False)
        assert ledger.max_overcommit() == pytest.approx(50.0)

    def test_negative_amounts_rejected(self, ledger):
        with pytest.raises(CapacityError):
            ledger.allocate(0, 0, 0.0, 1.0, -1.0)
        with pytest.raises(CapacityError):
            ledger.release(0, 0, 0.0, 1.0, -1.0)

    def test_release(self, ledger):
        ledger.allocate(0, 0, 0.0, 10.0, 60.0)
        ledger.release(0, 0, 0.0, 10.0, 60.0)
        assert ledger.ingress_timeline(0).is_zero() and ledger.egress_timeline(0).is_zero()

    def test_exact_fit_allowed(self, ledger):
        ledger.allocate(1, 1, 0.0, 5.0, 50.0)
        assert ledger.ingress_timeline(1).usage_at(2.0) == pytest.approx(50.0)

    def test_sum_of_exact_parts(self, ledger):
        # many small allocations summing to exactly capacity must fit
        for _ in range(10):
            ledger.allocate(0, 0, 0.0, 1.0, 10.0)
        assert ledger.ingress_timeline(0).usage_at(0.5) == pytest.approx(100.0)
        assert not ledger.fits(0, 0, 0.0, 1.0, 1.0)


class TestQueries:
    def test_timelines_exposed(self, ledger):
        ledger.allocate(1, 0, 2.0, 4.0, 5.0)
        assert ledger.ingress_timeline(1).usage_at(3.0) == pytest.approx(5.0)
        assert ledger.egress_timeline(0).usage_at(3.0) == pytest.approx(5.0)


class TestDegradation:
    """Time-varying capacity: outages and partial failures."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Degradation("sideways", 0, 0.0, 1.0, 10.0)
        with pytest.raises(ConfigurationError):
            Degradation("ingress", 0, 5.0, 5.0, 10.0)
        with pytest.raises(ConfigurationError):
            Degradation("ingress", 0, 0.0, 1.0, -10.0)

    def test_capacity_at(self, ledger):
        ledger.degrade(Degradation("ingress", 0, 10.0, 20.0, 30.0))
        assert capacity_at(ledger, "ingress", 0, 5.0) == pytest.approx(100.0)
        assert capacity_at(ledger, "ingress", 0, 15.0) == pytest.approx(70.0)
        assert capacity_at(ledger, "ingress", 0, 20.0) == pytest.approx(100.0)

    def test_outage_floors_at_zero(self, ledger):
        ledger.degrade(Degradation("egress", 1, 0.0, 10.0, 500.0))
        assert capacity_at(ledger, "egress", 1, 5.0) == 0.0
        assert not ledger.fits(0, 1, 0.0, 10.0, 1.0)
        assert ledger.fits(0, 1, 10.0, 20.0, 80.0)

    def test_fits_respects_degraded_window(self, ledger):
        ledger.degrade(Degradation("ingress", 0, 10.0, 20.0, 60.0))
        assert ledger.fits(0, 0, 0.0, 10.0, 100.0)   # before the fault
        assert not ledger.fits(0, 0, 5.0, 15.0, 50.0)  # overlaps it
        assert ledger.fits(0, 0, 5.0, 15.0, 40.0)

    def test_degradations_stack(self, ledger):
        ledger.degrade(Degradation("ingress", 0, 0.0, 10.0, 30.0))
        ledger.degrade(Degradation("ingress", 0, 5.0, 15.0, 30.0))
        assert capacity_at(ledger, "ingress", 0, 7.0) == pytest.approx(40.0)
        assert ledger.free_capacity("ingress", 0, 0.0, 15.0) == pytest.approx(40.0)

    def test_overcommit_accounts_for_degradation(self, ledger):
        ledger.allocate(0, 0, 0.0, 10.0, 80.0)
        assert ledger.max_overcommit() <= 0.0
        ledger.degrade(Degradation("ingress", 0, 5.0, 8.0, 50.0))
        assert ledger.max_overcommit() == pytest.approx(30.0)  # 80 - (100-50)
        assert ledger.port("ingress", 0).overcommit_on(5.0, 8.0) == pytest.approx(30.0)
        assert ledger.port("ingress", 0).overcommit_on(0.0, 5.0) == pytest.approx(-20.0)

    def test_degradation_edges(self, ledger):
        ledger.degrade(Degradation("egress", 0, 3.0, 7.0, 10.0))
        assert sorted(ledger.degradation_edges("egress", 0)) == [3.0, 7.0]
        assert ledger.degradation_edges("egress", 1) == []

    def test_unknown_port_rejected(self, ledger):
        with pytest.raises(ConfigurationError):
            ledger.degrade(Degradation("ingress", 9, 0.0, 1.0, 10.0))

    def test_checked_allocation_respects_degraded_capacity(self, ledger):
        ledger.degrade(Degradation("ingress", 0, 0.0, 10.0, 70.0))
        with pytest.raises(CapacityError):
            ledger.allocate(0, 0, 0.0, 10.0, 40.0)
        ledger.allocate(0, 0, 0.0, 10.0, 30.0)
        assert ledger.max_overcommit() <= 1e-9

    def test_round_trip_dict(self):
        d = Degradation("egress", 2, 1.0, 4.0, 12.5)
        assert d.to_dict() == {"side": "egress", "port": 2, "t0": 1.0, "t1": 4.0, "amount": 12.5}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 1),
            st.floats(0.0, 100.0, allow_nan=False),
            st.floats(0.1, 50.0, allow_nan=False),
            st.floats(0.1, 40.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_checked_allocations_never_overcommit(ops):
    """Whatever sequence of fits-guarded allocations runs, Eq. 1 holds."""
    ledger = PortLedger(Platform([100.0, 60.0], [90.0, 70.0]))
    for ingress, egress, start, length, bw in ops:
        if ledger.fits(ingress, egress, start, start + length, bw):
            ledger.allocate(ingress, egress, start, start + length, bw)
    assert ledger.max_overcommit() <= 1e-6
