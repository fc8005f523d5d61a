"""Tests for striped (multi-source) transfer planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Platform, PortLedger
from repro.control.striped import book_striped, plan_striped


@pytest.fixture
def setup():
    platform = Platform.uniform(4, 2, 100.0)
    return platform, PortLedger(platform)


class TestPlanning:
    def test_single_source_full_rate(self, setup):
        platform, ledger = setup
        booking = plan_striped(
            ledger, platform, sources=[0], egress=0, volume=1000.0, t_start=0.0, t_end=100.0
        )
        assert booking is not None
        assert booking.finish == pytest.approx(10.0)  # 100 MB/s available
        assert booking.total_rate == pytest.approx(100.0)
        assert booking.volume == pytest.approx(1000.0)

    def test_striping_beats_single_stream(self, setup):
        platform, ledger = setup
        # egress 0 caps at 100, so two sources can't go faster than 100 total
        single = plan_striped(
            ledger, platform, sources=[0], egress=0, volume=1000.0, t_start=0.0, t_end=100.0,
            max_stream_rate=50.0,
        )
        striped = plan_striped(
            ledger, platform, sources=[0, 1], egress=0, volume=1000.0, t_start=0.0, t_end=100.0,
            max_stream_rate=50.0,
        )
        assert single.finish == pytest.approx(20.0)   # 50 MB/s
        assert striped.finish == pytest.approx(10.0)  # 2 x 50 MB/s

    def test_egress_is_the_aggregate_bottleneck(self, setup):
        platform, ledger = setup
        booking = plan_striped(
            ledger, platform, sources=[0, 1, 2, 3], egress=0, volume=1000.0,
            t_start=0.0, t_end=100.0,
        )
        assert booking.total_rate == pytest.approx(100.0)  # egress cap, not 400

    def test_uses_headroom_left_by_existing_bookings(self, setup):
        platform, ledger = setup
        ledger.allocate(0, 0, 0.0, 50.0, 80.0)  # source 0 mostly busy until 50
        booking = book_striped(
            ledger, platform, sources=[0, 1], egress=1, volume=2000.0,
            t_start=0.0, t_end=200.0,
        )
        assert booking is not None
        # source 0 contributes at most 20 until t=50; source 1 up to 80
        # (egress cap 100); planner finds a feasible common finish
        assert booking.volume == pytest.approx(2000.0)
        assert ledger.max_overcommit() <= 1e-9

    def test_infeasible_returns_none(self, setup):
        platform, ledger = setup
        booking = plan_striped(
            ledger, platform, sources=[0], egress=0, volume=100_000.0,
            t_start=0.0, t_end=10.0,
        )
        assert booking is None

    def test_book_commits_and_plan_does_not(self, setup):
        platform, ledger = setup
        plan_striped(ledger, platform, sources=[0], egress=0, volume=100.0, t_start=0.0, t_end=10.0)
        assert ledger.ingress_timeline(0).is_zero()
        book_striped(ledger, platform, sources=[0], egress=0, volume=100.0, t_start=0.0, t_end=10.0)
        assert not ledger.ingress_timeline(0).is_zero()

    def test_zero_rate_stripes_omitted(self, setup):
        platform, ledger = setup
        ledger.allocate(1, 1, 0.0, 1000.0, 100.0)  # source 1 fully busy
        booking = plan_striped(
            ledger, platform, sources=[0, 1], egress=0, volume=500.0, t_start=0.0, t_end=100.0
        )
        assert booking is not None
        assert all(a.ingress != 1 for a in booking.allocations)

    def test_validation(self, setup):
        platform, ledger = setup
        with pytest.raises(ConfigurationError):
            plan_striped(ledger, platform, sources=[], egress=0, volume=1.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            plan_striped(ledger, platform, sources=[0, 0], egress=0, volume=1.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            plan_striped(ledger, platform, sources=[0], egress=0, volume=-1.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            plan_striped(ledger, platform, sources=[0], egress=0, volume=1.0, t_start=5.0, t_end=1.0)


def test_busy_paper_platform_never_overcommits():
    """Sixty three-source bookings, twenty seconds apart, on one ledger of
    the paper's heterogeneous platform."""
    platform, rng = Platform.paper_platform(), np.random.default_rng(1)
    ledger = PortLedger(platform)
    booked = 0
    for k in range(60):
        booked += book_striped(
            ledger, platform, sources=list(rng.choice(10, size=3, replace=False)),
            egress=int(rng.integers(10)), volume=float(rng.uniform(5e4, 5e5)),
            t_start=k * 20.0, t_end=k * 20.0 + 3600.0, max_stream_rate=500.0,
        ) is not None  # fmt: skip
    assert booked >= 20
    assert ledger.max_overcommit() <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    volume=st.floats(10.0, 50_000.0, allow_nan=False),
    num_sources=st.integers(1, 4),
    max_stream=st.one_of(st.none(), st.floats(10.0, 100.0, allow_nan=False)),
    preload=st.floats(0.0, 90.0, allow_nan=False),
)
def test_striped_properties(volume, num_sources, max_stream, preload):
    """Property: any booking carries exactly the volume, respects the
    deadline, and never overcommits the ledger."""
    platform = Platform.uniform(4, 2, 100.0)
    ledger = PortLedger(platform)
    if preload > 0:
        ledger.allocate(0, 0, 0.0, 500.0, preload)
    booking = book_striped(
        ledger,
        platform,
        sources=list(range(num_sources)),
        egress=0,
        volume=volume,
        t_start=0.0,
        t_end=1000.0,
        max_stream_rate=max_stream,
    )
    if booking is None:
        return
    assert booking.volume == pytest.approx(volume, rel=1e-9)
    assert booking.finish <= 1000.0 + 1e-9
    assert ledger.max_overcommit() <= 1e-6
