"""Tests for the capacity kernel: the profile contract and regressions.

Every kernel-contract test is parametrized over the production class
(:class:`BreakpointProfile`) and the reference oracle
(:class:`VectorProfile`) directly — the oracle is only worth comparing
against while it honours the same contract.  The regression tests at the
bottom (coalescing at tolerance boundaries, ``PortLedger.copy``
independence) used to live against the concrete timeline class.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Platform, PortLedger
from repro.core.capacity import BreakpointProfile, CapacityProfile, make_profile
from repro.core.timeline import BandwidthTimeline
from repro.gateway import ShardBroker, ShardMap

from .conftest import KERNELS


@pytest.fixture(params=KERNELS.values(), ids=KERNELS.keys())
def kernel(request):
    return request.param


@pytest.fixture
def profile(kernel):
    return kernel()


class TestBackendRegistry:
    """There is no registry: one production class, nothing selects another."""

    def test_default_is_breakpoint(self):
        assert type(make_profile()) is BreakpointProfile

    def test_bandwidth_timeline_alias_is_the_production_class(self):
        assert BandwidthTimeline is BreakpointProfile

    def test_isinstance_holds_for_every_backend(self):
        for cls in KERNELS.values():
            assert isinstance(cls(), CapacityProfile)

    def test_dead_environment_switch_is_ignored(self, monkeypatch):
        # At the parent commit this variable put every ledger on VectorProfile
        # and CapacityProfile() dispatched to it.
        monkeypatch.setenv("REPRO_CAPACITY_BACKEND", "vector")
        platform = Platform.uniform(2, 2, 100.0)
        broker = ShardBroker(0, ShardMap(platform, 1))
        assert type(PortLedger(platform).ingress_timeline(0)) is BreakpointProfile
        assert type(broker.timeline("ingress", 0)) is BreakpointProfile
        assert type(broker.timeline("egress", 1)) is BreakpointProfile
        with pytest.raises(TypeError):
            CapacityProfile()


class TestProfileContract:
    def test_starts_zero(self, profile):
        assert profile.usage_at(0.0) == 0.0
        assert profile.is_zero()
        assert profile.num_segments == 1
        assert profile.global_max() == 0.0

    def test_add_and_query(self, profile):
        profile.add(10.0, 20.0, 5.0)
        assert profile.usage_at(9.999) == 0.0
        assert profile.usage_at(10.0) == 5.0
        assert profile.usage_at(20.0) == 0.0  # half-open
        assert profile.max_usage(0.0, 30.0) == 5.0
        assert profile.min_usage(10.0, 20.0) == 5.0
        assert profile.integral(0.0, 30.0) == 50.0

    def test_empty_and_inverted_intervals_rejected(self, profile):
        for t0, t1 in [(5.0, 5.0), (5.0, 4.0)]:
            with pytest.raises(ValueError):
                profile.add(t0, t1, 1.0)
            with pytest.raises(ValueError):
                profile.max_usage(t0, t1)
            with pytest.raises(ValueError):
                profile.min_usage(t0, t1)
            with pytest.raises(ValueError):
                profile.integral(t0, t1)

    def test_release_coalesces_back_to_zero(self, profile):
        profile.add(0.0, 10.0, 3.0)
        profile.add(0.0, 10.0, -3.0)
        assert profile.is_zero()
        assert profile.num_segments == 1

    def test_segments_clip(self, profile):
        profile.add(0.0, 10.0, 2.0)
        profile.add(10.0, 20.0, 4.0)
        segs = list(profile.segments(5.0, 15.0))
        assert segs == [(5.0, 10.0, 2.0), (10.0, 15.0, 4.0)]

    def test_breakpoints_finite(self, profile):
        profile.add(1.0, 2.0, 1.0)
        pts = profile.breakpoints()
        assert np.all(np.isfinite(pts))
        assert list(pts) == [1.0, 2.0]

    def test_global_max_cache_tracks_mutations(self, profile):
        profile.add(0.0, 10.0, 3.0)
        assert profile.global_max() == 3.0
        profile.add(5.0, 15.0, 4.0)
        assert profile.global_max() == 7.0
        profile.add(5.0, 15.0, -4.0)
        assert profile.global_max() == 3.0
        profile.clear()
        assert profile.global_max() == 0.0

    def test_global_max_equals_scan_after_random_adds_and_releases(self, profile):
        # The production class keeps its peak cache warm across bookings
        # (positive adds) and drops it on releases; either way the answer
        # is the from-scratch maximum, bit for bit.
        rng = random.Random(11)
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                t0, t1, bw = live.pop(rng.randrange(len(live)))
                profile.add(t0, t1, -bw)
            else:
                t0 = rng.uniform(0.0, 500.0)
                booking = (t0, t0 + rng.uniform(0.1, 120.0), rng.uniform(0.5, 90.0))
                profile.add(*booking)
                live.append(booking)
            if step % 3:
                # Not every step: leaves runs of mutations between reads,
                # warm cache and dropped cache alike.
                assert profile.global_max() == max(
                    [0.0, *(value for _, _, value in profile.segments())]
                )

    def test_breakpoints_between_is_half_open_on_the_left(self, profile):
        profile.add(1.0, 2.0, 1.0)
        profile.add(4.0, 8.0, 1.0)
        assert profile.breakpoints_between(-math.inf, math.inf) == [1.0, 2.0, 4.0, 8.0]
        assert profile.breakpoints_between(1.0, 4.0) == [2.0, 4.0]
        assert profile.breakpoints_between(2.5, 3.5) == []
        assert all(type(t) is float for t in profile.breakpoints_between(0.0, 9.0))

    def test_blocker_names_the_last_failing_segment(self, profile):
        profile.add(0.0, 10.0, 60.0)
        profile.add(20.0, 30.0, 80.0)
        profile.add(40.0, 50.0, 10.0)
        assert profile.blocker(0.0, 60.0, 15.0, 100.0) is None
        # 30 fits over [0, 10) (60 + 30) but not over [20, 30) (80 + 30).
        assert profile.blocker(0.0, 60.0, 30.0, 100.0) == (20.0, 30.0)
        assert profile.blocker(5.0, 25.0, 50.0, 100.0) == (20.0, 30.0)
        assert profile.blocker(5.0, 15.0, 50.0, 100.0) == (0.0, 10.0)
        assert profile.blocker(12.0, 15.0, 50.0, 100.0) is None
        # Half-open: a window ending where the hot segment starts is clear of it.
        assert profile.blocker(12.0, 20.0, 50.0, 100.0) is None
        # A rate above the capacity is blocked by the empty tails themselves.
        assert profile.blocker(55.0, 60.0, 101.0, 100.0) == (50.0, math.inf)
        assert profile.blocker(-5.0, -1.0, 101.0, 100.0) == (-math.inf, 0.0)
        with pytest.raises(ValueError):
            profile.blocker(4.0, 4.0, 1.0, 100.0)

    def test_open_ended_max_tracks_mutations(self, profile):
        # Exercises the oracle's suffix-max cache across invalidations;
        # the production class answers by scan.
        profile.add(0.0, 10.0, 2.0)
        assert profile.max_usage(5.0, math.inf) == 2.0
        profile.add(20.0, 30.0, 9.0)
        assert profile.max_usage(5.0, math.inf) == 9.0
        assert profile.max_usage(25.0, math.inf) == 9.0
        assert profile.max_usage(30.0, math.inf) == 0.0
        profile.add(20.0, 30.0, -9.0)
        assert profile.max_usage(5.0, math.inf) == 2.0

    def test_copy_is_independent_and_same_backend(self, profile, kernel):
        profile.add(0.0, 10.0, 3.0)
        clone = profile.copy()
        assert type(clone) is kernel
        clone.add(0.0, 10.0, 4.0)
        assert profile.max_usage(0.0, 10.0) == 3.0
        assert clone.max_usage(0.0, 10.0) == 7.0

    def test_add_batch_matches_sequential_adds(self, kernel):
        rng = np.random.default_rng(7)
        intervals = []
        for _ in range(200):
            t0 = float(rng.uniform(0.0, 1000.0))
            t1 = t0 + float(rng.uniform(0.1, 200.0))
            intervals.append((t0, t1, float(rng.uniform(-5.0, 15.0))))

        batched = kernel()
        batched.add_batch(intervals)
        sequential = kernel()
        for t0, t1, delta in intervals:
            sequential.add(t0, t1, delta)

        assert list(batched.segments()) == list(sequential.segments())
        assert batched.num_segments == sequential.num_segments

    def test_add_batch_empty_is_noop(self, profile):
        profile.add(0.0, 1.0, 1.0)
        profile.add_batch([])
        assert list(profile.segments()) == [(0.0, 1.0, 1.0)]

    def test_add_batch_rejects_bad_interval(self, profile):
        with pytest.raises(ValueError):
            profile.add_batch([(0.0, 1.0, 1.0), (5.0, 5.0, 1.0)])

    def test_repr_mentions_backend_class(self, profile):
        profile.add(0.0, 1.0, 2.0)
        assert type(profile).__name__ in repr(profile)


#: One step of a book/release sequence: book ``delta`` over ``[t0, t0 + span)``
#: under capacity 100, or release the ``pick``-th live booking.  Whole-number
#: times land on existing breakpoints; 0, 25, 50 and 100 give zero deltas
#: and exact-capacity fits.
BOOK_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("book"),
            st.integers(0, 12).map(float) | st.floats(0.0, 12.0),
            st.integers(1, 6).map(float) | st.floats(0.25, 6.0),
            st.sampled_from([0.0, 25.0, 50.0, 100.0]) | st.floats(0.0, 110.0),
        ),
        st.tuples(st.just("release"), st.integers(0, 40)),
    ),
    max_size=30,
)


class TestBookConformance:
    """``book`` is ``blocker(...) is None`` then ``add``, in one call."""

    @pytest.mark.parametrize("kernel_class", KERNELS.values(), ids=KERNELS.keys())
    @settings(max_examples=120, deadline=None)
    @given(steps=BOOK_STEPS)
    def test_book_equals_blocker_then_add(self, kernel_class, steps):
        booked, probed = kernel_class(), kernel_class()
        live = []
        for step in steps:
            if step[0] == "release":
                if not live:
                    continue
                t0, t1, delta = live.pop(step[1] % len(live))
                booked.add(t0, t1, -delta)
                probed.add(t0, t1, -delta)
            else:
                _, t0, span, delta = step
                t1 = t0 + span
                fits = probed.blocker(t0, t1, delta, 100.0) is None
                if fits:
                    probed.add(t0, t1, delta)
                assert booked.book(t0, t1, delta, 100.0) is fits
                if fits and delta:
                    live.append((t0, t1, delta))
            assert list(booked.breakpoints()) == list(probed.breakpoints())
            assert list(booked.segments()) == list(probed.segments())
            for profile in (booked, probed):
                assert profile.global_max() == max(
                    [0.0, *(value for _, _, value in profile.segments())]
                )

    def test_book_rejects_an_empty_interval(self, profile):
        with pytest.raises(ValueError):
            profile.book(4.0, 4.0, 1.0, 100.0)


class TestCoalescingRegression:
    """Adjacent segments merge on *exact* value equality only.

    Coalescing on approximate equality would silently change admission
    arithmetic: a segment at ``3.0`` and one at ``3.0 + 1e-12`` are one
    ulp apart for a max-query but must stay distinct segments, because the
    later release of the 1e-12 allocation has to find its breakpoints.
    """

    def test_values_one_ulp_apart_do_not_coalesce(self, profile):
        profile.add(0.0, 10.0, 3.0)
        profile.add(10.0, 20.0, 3.0 + 1e-12)
        assert profile.num_segments == 4  # zero | 3.0 | 3.0+eps | zero

    def test_exactly_equal_values_coalesce(self, profile):
        profile.add(0.0, 10.0, 3.0)
        profile.add(10.0, 20.0, 3.0)
        assert profile.num_segments == 3  # zero | 3.0 | zero
        assert list(profile.segments()) == [(0.0, 20.0, 3.0)]

    def test_release_heals_a_split(self, profile):
        profile.add(0.0, 20.0, 3.0)
        profile.add(5.0, 15.0, 1.0)
        assert profile.num_segments == 5
        profile.add(5.0, 15.0, -1.0)
        assert profile.num_segments == 3
        assert list(profile.segments()) == [(0.0, 20.0, 3.0)]

    def test_tolerance_residue_not_coalesced_but_is_zero_absorbs(self, profile):
        profile.add(0.0, 10.0, 0.1)
        profile.add(0.0, 10.0, 0.2)
        profile.add(0.0, 10.0, -0.3)
        # 0.1 + 0.2 - 0.3 != 0.0 exactly; the residue segment survives…
        assert profile.max_usage(0.0, 10.0) != 0.0
        # …but is_zero's tolerance absorbs it.
        assert profile.is_zero()


class TestPortLedgerAcrossBackends:
    """Ledger arithmetic on the production class and, swapped in from the
    test's side, on the oracle — production never builds the latter."""

    @pytest.fixture
    def platform(self):
        return Platform.uniform(2, 2, 100.0)

    @pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
    def test_ledger_copy_independence(self, platform, ledger_kernel):
        ledger = PortLedger(platform)
        ledger.allocate(0, 1, 0.0, 10.0, 40.0)
        clone = ledger.copy()
        clone.allocate(0, 1, 0.0, 10.0, 50.0)

        assert ledger.ingress_timeline(0).max_usage(0.0, 10.0) == 40.0
        assert clone.ingress_timeline(0).max_usage(0.0, 10.0) == 90.0
        # The original still fits another 60; the clone does not.
        assert ledger.fits(0, 1, 0.0, 10.0, 60.0)
        assert not clone.fits(0, 1, 0.0, 10.0, 60.0)

    @pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
    def test_ledger_timelines_use_selected_backend(self, platform, ledger_kernel):
        # Guards the fixture itself: were the ledger to stop building its
        # profiles through make_profile, every [vector] ledger test would
        # silently run on the production class.
        ledger = PortLedger(platform)
        assert type(ledger.ingress_timeline(0)) is ledger_kernel
        assert type(ledger.egress_timeline(1)) is ledger_kernel
        assert type(ledger.copy().ingress_timeline(0)) is ledger_kernel

    def test_same_decisions_both_backends(self, platform, monkeypatch):
        decisions = {}
        for name, cls in KERNELS.items():
            monkeypatch.setattr("repro.core.ledger.make_profile", cls)
            ledger = PortLedger(platform)
            outcome = []
            for k in range(40):
                t0 = float(k % 7)
                t1 = t0 + 3.0 + (k % 3)
                bw = 30.0 + 7.0 * (k % 5)
                if ledger.fits(k % 2, k % 2, t0, t1, bw):
                    ledger.allocate(k % 2, k % 2, t0, t1, bw)
                    outcome.append((k, True))
                else:
                    outcome.append((k, False))
            decisions[name] = outcome
        assert decisions["breakpoint"] == decisions["vector"]

    def test_same_decisions_both_backends_multi_segment(self, platform, monkeypatch):
        """Stepwise (multi-segment) bookings decide identically too.

        Fuzzed ``Port.fits`` / ``allocate_segments`` /
        ``release_segments`` streams drawn from binary fractions, so
        float arithmetic is exact and the traces compare with ``==``.
        """
        def quarter(rng, lo, hi):
            return round(rng.uniform(lo, hi) * 4.0) / 4.0

        for seed in (0, 1, 2, 3):
            decisions = {}
            for name, cls in KERNELS.items():
                rng = random.Random(seed)
                monkeypatch.setattr("repro.core.ledger.make_profile", cls)
                ledger = PortLedger(platform)
                live = []
                outcome = []
                for k in range(60):
                    segments = []
                    t = quarter(rng, 0.0, 20.0)
                    for _ in range(rng.randint(1, 4)):
                        t1 = t + quarter(rng, 0.5, 6.0)
                        segments.append((t, t1, quarter(rng, 5.0, 45.0)))
                        t = t1 + quarter(rng, 0.0, 3.0)
                    i, e = rng.randrange(2), rng.randrange(2)
                    if all(port.fits(segments) for port in ledger.ports(i, e)):
                        ledger.allocate_segments(i, e, segments)
                        live.append((i, e, segments))
                        outcome.append((k, True))
                    else:
                        outcome.append((k, False))
                    if live and rng.random() < 0.3:
                        ledger.release_segments(*live.pop(rng.randrange(len(live))))
                sample_ts = [t * 0.25 for t in range(0, 200, 3)]
                usage = [
                    (ledger.ingress_usage_at(p, t), ledger.egress_usage_at(p, t))
                    for p in range(2)
                    for t in sample_ts
                ]
                decisions[name] = (outcome, usage)
            assert decisions["breakpoint"] == decisions["vector"]
