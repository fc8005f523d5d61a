"""RateProfile: canonical hygiene, surgery, and the 1-segment identity.

Three of the malleable-transfer satellites live here:

- segment hygiene has exactly one home (:meth:`RateProfile.normalize`),
  with the ``t0 == t1`` and touching-segment regressions run on the
  production ledger and on one with the reference oracle swapped in
  underneath (``ledger_kernel``, ``tests/conftest.py``);
- seeded property tests pin the 1-segment profile to the constant-rate
  path: same placements, same reject blame, over multiple seeds and both
  kernel classes (the refactor's "constant path is the 1-segment special
  case" claim, checked at the booking layer);
- reserve→release of any fuzzed profile restores the ledger exactly.

Fuzzed times/rates are multiples of 1/4 so every intermediate float is a
binary fraction: additions are exact and "exactly restored" means ``==``.
"""

import random

import pytest

from repro.core.booking import (
    FitProbe,
    RejectReason,
    earliest_fit,
    earliest_fit_profile,
    shape_profile,
)
from repro.core.ledger import PortLedger
from repro.core.platform import Platform
from repro.core.profile import RateProfile
from repro.core.request import Request

from .conftest import KERNELS


# ----------------------------------------------------------------------
# Canonical hygiene (RateProfile.normalize)
# ----------------------------------------------------------------------
class TestNormalize:
    def test_drops_zero_length_and_zero_rate(self):
        p = RateProfile([(0.0, 0.0, 10.0), (0.0, 5.0, 10.0), (5.0, 9.0, 0.0)])
        assert p.segments == ((0.0, 5.0, 10.0),)

    def test_coalesces_touching_equal_rates(self):
        p = RateProfile([(0.0, 5.0, 10.0), (5.0, 9.0, 10.0)])
        assert p.segments == ((0.0, 9.0, 10.0),)

    def test_touching_different_rates_stay_separate(self):
        p = RateProfile([(0.0, 5.0, 10.0), (5.0, 9.0, 20.0)])
        assert len(p.segments) == 2

    def test_sorts_out_of_order_input(self):
        p = RateProfile([(5.0, 9.0, 20.0), (0.0, 5.0, 10.0)])
        assert p.segments == ((0.0, 5.0, 10.0), (5.0, 9.0, 20.0))

    def test_gaps_are_allowed(self):
        p = RateProfile([(0.0, 2.0, 10.0), (4.0, 6.0, 10.0)])
        assert len(p.segments) == 2
        assert p.volume_before(4.0) == p.volume_before(2.0)  # nothing carried in the gap
        assert p.tau - p.sigma == 6.0

    def test_rejects_real_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            RateProfile([(0.0, 5.0, 10.0), (4.0, 9.0, 10.0)])

    def test_clamps_sub_tolerance_overlap(self):
        p = RateProfile([(0.0, 5.0, 10.0), (5.0 - 1e-12, 9.0, 20.0)])
        assert p.segments[1][0] == 5.0

    def test_rejects_negative_rate_inverted_window_nonfinite(self):
        with pytest.raises(ValueError, match="negative rate"):
            RateProfile([(0.0, 5.0, -1.0)])
        with pytest.raises(ValueError, match="ends before"):
            RateProfile([(5.0, 0.0, 10.0)])
        with pytest.raises(ValueError, match="finite"):
            RateProfile([(0.0, float("inf"), 10.0)])
        with pytest.raises(ValueError, match="malformed"):
            RateProfile([(0.0, 5.0)])

    def test_empty_profile_is_valid_and_falsy(self):
        p = RateProfile(())
        assert not p
        assert p.segments == ()
        assert p.volume == 0.0
        assert p.peak_rate == 0.0


class TestShapeAndSurgery:
    def test_scalar_summary(self):
        p = RateProfile([(10.0, 20.0, 4.0), (30.0, 40.0, 8.0)])
        assert p.sigma == 10.0 and p.tau == 40.0
        assert p.volume == 120.0
        assert p.peak_rate == 8.0
        assert p.conserves(120.0) and not p.conserves(121.0)

    def test_rate_at_and_volume_before(self):
        p = RateProfile([(10.0, 20.0, 4.0), (30.0, 40.0, 8.0)])
        # The rate at t is what one more second from t carries.
        assert p.volume_before(11.0) - p.volume_before(10.0) == 4.0
        assert p.volume_before(21.0) - p.volume_before(20.0) == 0.0  # half-open segments
        assert p.volume_before(36.0) - p.volume_before(35.0) == 8.0
        assert p.volume_before(10.0) == 0.0
        assert p.volume_before(15.0) == 20.0
        assert p.volume_before(35.0) == 80.0
        assert p.volume_before(100.0) == p.volume

    def test_head_tail_partition_conserves_volume(self):
        p = RateProfile([(10.0, 20.0, 4.0), (30.0, 40.0, 8.0)])
        for cut in (5.0, 10.0, 15.0, 25.0, 35.0, 40.0, 50.0):
            head = p.head_until(cut)
            tail = RateProfile((max(cut, t0), t1, rate) for t0, t1, rate in p.segments if t1 > cut)
            assert head.volume + tail.volume == p.volume
            assert head.concat(tail).segments == p.segments

    def test_shift_preserves_shape(self):
        p = RateProfile([(10.0, 20.0, 4.0), (30.0, 40.0, 8.0)])
        q = p.shift(5.0)
        assert q.sigma == 15.0 and q.tau == 45.0 and q.volume == p.volume

    def test_wire_roundtrip_and_maybe_from(self):
        p = RateProfile([(0.0, 5.0, 10.0), (6.0, 8.0, 2.0)])
        assert RateProfile.from_list(p.to_list()).segments == p.segments
        assert RateProfile.maybe_from(None) is None
        assert RateProfile.maybe_from(p) is p
        assert RateProfile.maybe_from(p.to_list()).segments == p.segments


# ----------------------------------------------------------------------
# Segment hygiene against both kernel classes (satellite regression)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
class TestSegmentsOnBackends:
    def test_zero_length_segments_never_reach_the_backend(self, ledger_kernel):
        # A raw list with t0 == t1 slivers must book exactly like the
        # cleaned shape: normalize() drops the slivers before the backend
        # (whose contract is strict t1 > t0) ever sees them.
        ledger = PortLedger(Platform.uniform(2, 2, 100.0))
        profile = RateProfile([(0.0, 0.0, 50.0), (0.0, 10.0, 30.0), (10.0, 10.0, 5.0)])
        ledger.allocate_segments(0, 0, profile.segments)
        assert ledger.ingress_timeline(0).usage_at(5.0) == 30.0
        assert ledger.ingress_timeline(0).usage_at(10.0) == 0.0

    def test_touching_segments_coalesce_before_booking(self, ledger_kernel):
        ledger = PortLedger(Platform.uniform(2, 2, 100.0))
        profile = RateProfile([(0.0, 5.0, 30.0), (5.0, 10.0, 30.0)])
        assert len(profile.segments) == 1
        ledger.allocate_segments(0, 0, profile.segments)
        for t in (0.0, 2.5, 5.0, 7.5):
            assert ledger.ingress_timeline(0).usage_at(t) == 30.0
            assert ledger.egress_timeline(0).usage_at(t) == 30.0

    def test_one_segment_fits_equals_constant_fits(self, ledger_kernel):
        ledger = PortLedger(Platform.uniform(2, 2, 100.0))
        ledger.allocate(0, 0, 0.0, 50.0, 80.0)
        for bw in (10.0, 20.0, 25.0, 60.0):
            single = RateProfile(((10.0, 40.0, bw),))
            assert all(port.fits(single.segments) for port in ledger.ports(0, 0)) == ledger.fits(
                0, 0, 10.0, 40.0, bw
            )


# ----------------------------------------------------------------------
# Seeded property: the 1-segment profile IS the constant path
# ----------------------------------------------------------------------
def _quarter(rng, lo, hi):
    """A uniform draw snapped to a binary fraction (multiple of 1/4)."""
    return round(rng.uniform(lo, hi) * 4.0) / 4.0


def _fuzzed_ledger(rng, platform):
    ledger = PortLedger(platform)
    for _ in range(rng.randrange(3, 12)):
        i = rng.randrange(platform.num_ingress)
        e = rng.randrange(platform.num_egress)
        t0 = _quarter(rng, 0.0, 300.0)
        t1 = t0 + _quarter(rng, 1.0, 120.0)
        bw = _quarter(rng, 5.0, 70.0)
        ledger.allocate(i, e, t0, t1, bw, check=False)
    return ledger


@pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
class TestOneSegmentDecisionIdentity:
    def test_matches_constant_earliest_fit(self, ledger_kernel, seed):
        """Placing a fixed-rate block as a 1-segment profile decides
        identically to the constant-rate earliest-fit search: same
        accept/reject, same placement, same capacity blame.  The only
        sanctioned divergence is the window verdict's name
        (``window-infeasible`` vs ``profile-infeasible``)."""
        rng = random.Random(seed)
        platform = Platform.uniform(3, 3, 100.0)
        for _ in range(40):
            ledger = _fuzzed_ledger(rng, platform)
            t_start = _quarter(rng, 0.0, 200.0)
            duration = _quarter(rng, 2.0, 80.0)
            bw = _quarter(rng, 5.0, 90.0)
            slack = _quarter(rng, 0.0, 100.0)
            request = Request(
                rid=0,
                ingress=rng.randrange(3),
                egress=rng.randrange(3),
                volume=bw * duration,
                t_start=t_start,
                t_end=t_start + duration + slack,
                max_rate=bw,
            )
            const_probe, prof_probe = FitProbe(), FitProbe()
            const = earliest_fit(
                ledger, request, lambda sigma: bw, probe=const_probe
            )
            profile = RateProfile(((t_start, t_start + duration, bw),))
            shaped = earliest_fit_profile(
                ledger, request, profile, probe=prof_probe
            )
            assert (const is None) == (shaped is None)
            if const is not None:
                assert shaped.profile is not None
                assert shaped.profile.segments == ((const.sigma, const.tau, const.bw),)
                assert (shaped.sigma, shaped.tau, shaped.bw) == (
                    const.sigma,
                    const.tau,
                    const.bw,
                )
            elif const_probe.reason in (
                RejectReason.INGRESS_FULL,
                RejectReason.EGRESS_FULL,
            ):
                assert prof_probe.reason == const_probe.reason
            else:
                assert const_probe.reason == RejectReason.WINDOW_INFEASIBLE
                assert prof_probe.reason == RejectReason.PROFILE_INFEASIBLE


# ----------------------------------------------------------------------
# Seeded property: reserve -> release restores the ledger exactly
# ----------------------------------------------------------------------
def _fuzzed_profile(rng):
    segments = []
    t = _quarter(rng, 0.0, 100.0)
    for _ in range(rng.randrange(1, 6)):
        t0 = t + _quarter(rng, 0.0, 20.0)
        t1 = t0 + _quarter(rng, 0.25, 40.0)
        segments.append((t0, t1, _quarter(rng, 0.25, 60.0)))
        t = t1
    return RateProfile(segments)


def _usage_samples(ledger, platform, instants):
    return [
        (ledger.ingress_timeline(i).usage_at(t), ledger.egress_timeline(e).usage_at(t))
        for i in range(platform.num_ingress)
        for e in range(platform.num_egress)
        for t in instants
    ]


@pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
@pytest.mark.parametrize("seed", [10, 11, 12, 13])
class TestReserveReleaseRestores:
    def test_roundtrip_is_exact(self, ledger_kernel, seed):
        rng = random.Random(seed)
        platform = Platform.uniform(3, 3, 100.0)
        instants = [k * 0.25 for k in range(0, 1600, 7)]
        for _ in range(25):
            ledger = _fuzzed_ledger(rng, platform)
            before = _usage_samples(ledger, platform, instants)
            profile = _fuzzed_profile(rng)
            i, e = rng.randrange(3), rng.randrange(3)
            ledger.allocate_segments(i, e, profile.segments, check=False)
            # the reservation is visible while held...
            mid = profile.segments[0]
            assert ledger.ingress_timeline(i).usage_at(mid[0]) >= mid[2]
            ledger.release_segments(i, e, profile.segments)
            # ...and release restores every port exactly.
            assert _usage_samples(ledger, platform, instants) == before


# ----------------------------------------------------------------------
# Shaping sanity (the fallback half of malleable admission)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ledger_kernel", KERNELS, indirect=True)
class TestShapeProfile:
    def test_shapes_into_a_valley(self, ledger_kernel):
        ledger = PortLedger(Platform.uniform(2, 2, 100.0))
        # Hotspot: the pair is nearly full over [20, 60).
        ledger.allocate(0, 0, 20.0, 60.0, 90.0)
        request = Request(
            rid=1, ingress=0, egress=0, volume=1200.0,
            t_start=0.0, t_end=80.0, max_rate=40.0,
        )
        assert earliest_fit(ledger, request) is None
        shaped = shape_profile(ledger, request)
        assert shaped is not None and shaped.conserves(request.volume)
        assert len(shaped.segments) >= 2  # stepwise, not constant
        assert all(port.fits(shaped.segments) for port in ledger.ports(0, 0))

    def test_infeasible_window_is_profile_infeasible(self, ledger_kernel):
        ledger = PortLedger(Platform.uniform(2, 2, 100.0))
        ledger.allocate(0, 0, 0.0, 100.0, 95.0)
        request = Request(
            rid=1, ingress=0, egress=0, volume=5000.0,
            t_start=0.0, t_end=100.0, max_rate=80.0,
        )
        probe = FitProbe()
        assert shape_profile(ledger, request, probe=probe) is None
        assert probe.reason == RejectReason.PROFILE_INFEASIBLE
