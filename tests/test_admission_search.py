"""The one admission cascade (``core.booking.admission_search``), on the two
stores that serve it: the service's ``PortLedger`` and a two-shard
``TwoPhaseCoordinator`` holding the same bookings.  Pins which probe comes back —
the part the two planes used to write out separately."""

import pytest

from repro.core import Platform, PortLedger, Request, booking
from repro.core.booking import FitProbe, RejectReason, admission_search, earliest_fit
from repro.core.ledger import Degradation
from repro.core.profile import RateProfile
from repro.gateway import ShardBroker, ShardMap, TwoPhaseCoordinator
from repro.schedulers.policies import MinRatePolicy

from .test_search_identity import Unpromised

PLATFORM = Platform.uniform(2, 2, 100.0)
INGRESS, EGRESS = 0, 1  # with two shards: owned by broker 0 and broker 1
#: 80 of 100 MB/s taken over [40, 60): 6,000 MB by t=100 needs 60 MB/s
#: throughout (blocked), or 100 from t=40 (blocked), or more than MaxRate.
VALLEY = [(40.0, 60.0, 80.0)]


def ledger_view(bookings, degradations=()):
    ledger = PortLedger(PLATFORM)
    for t0, t1, bw in bookings:
        ledger.allocate(INGRESS, EGRESS, t0, t1, bw)
    for degradation in degradations:
        ledger.degrade(degradation)
    return ledger


def cross_shard_view(bookings, degradations=()):
    shard_map = ShardMap(PLATFORM, 2)
    brokers = [ShardBroker(s, shard_map) for s in range(2)]
    for step in bookings:
        brokers[0].restore("ingress", INGRESS, (step,))
        brokers[1].restore("egress", EGRESS, (step,))
    for degradation in degradations:
        brokers[shard_map.shard_of(degradation.side, degradation.port)].degrade(degradation)
    assert not shard_map.is_local(INGRESS, EGRESS)
    return TwoPhaseCoordinator(brokers, shard_map)


pytestmark = pytest.mark.parametrize("make_view", [ledger_view, cross_shard_view])


def request(volume):
    return Request(7, INGRESS, EGRESS, volume, t_start=0.0, t_end=100.0, max_rate=100.0)


@pytest.fixture
def no_shaping(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shape_profile called")

    monkeypatch.setattr(booking, "shape_profile", refuse)


@pytest.mark.parametrize("malleable", [False, True])
def test_explicit_profile_that_fits_nowhere_stays_profile_infeasible(
    make_view, malleable, no_shaping
):
    """The shape outlasts the window; the shaped fallback is not for shapes
    the client fixed."""
    allocation, probe = admission_search(
        make_view([]),
        request(6000.0),
        None,
        profile=RateProfile([(0.0, 120.0, 50.0)]),
        malleable=malleable,
    )
    assert allocation is None and probe.reason is RejectReason.PROFILE_INFEASIBLE
    assert (probe.candidates, probe.ingress_headroom, probe.egress_headroom) == (0, None, None)


def test_explicit_profile_slides_but_never_before_the_window_opens(make_view, no_shaping):
    early = RateProfile([(-10.0, 10.0, 50.0)])
    allocation, _ = admission_search(make_view(VALLEY), request(1000.0), None, profile=early)
    assert allocation.profile.to_list() == [[0.0, 20.0, 50.0]]
    # 90 MB/s for 30 s cannot overlap the valley: slid to its far edge.
    wide = RateProfile([(20.0, 50.0, 90.0)])
    allocation, probe = admission_search(make_view(VALLEY), request(2700.0), None, profile=wide)
    assert (allocation.sigma, allocation.tau) == (60.0, 90.0)
    assert (probe.candidates, probe.reason) == (3, None)


def test_failed_shaping_keeps_the_constant_searchs_diagnostics(make_view):
    """Nothing left on either port: the answer names what the constant
    search bounced off, not the shaper's blanket ``profile-infeasible``."""
    view = make_view([(0.0, 100.0, 100.0)])
    plain, plain_probe = admission_search(view, request(6000.0), None)
    shaped, probe = admission_search(view, request(6000.0), None, malleable=True)
    assert plain is None and shaped is None and probe == plain_probe
    assert (probe.reason, probe.candidates) == (RejectReason.INGRESS_FULL, 1)
    assert (probe.ingress_headroom, probe.egress_headroom) == (0.0, 0.0)


def test_successful_shaping_returns_the_shaped_probe_and_conserves_volume(make_view):
    allocation, probe = admission_search(make_view(VALLEY), request(6000.0), None, malleable=True)
    assert allocation.profile.to_list() == [
        [0.0, 40.0, 100.0], [40.0, 60.0, 20.0], [60.0, 76.0, 100.0]
    ]  # fmt: skip
    assert allocation.profile.conserves(6000.0)
    assert (allocation.rid, allocation.sigma, allocation.tau) == (7, 0.0, 76.0)
    # The shaper's own probe: three elementary intervals, nothing left over
    # from the constant search that failed first.
    assert (probe.candidates, probe.reason) == (3, None)
    assert (probe.ingress_headroom, probe.egress_headroom) == (None, None)


def test_shaping_runs_only_when_malleable_and_the_constant_search_failed(make_view, no_shaping):
    allocation, probe = admission_search(make_view(VALLEY), request(6000.0), None)
    assert allocation is None and probe.reason is RejectReason.INGRESS_FULL
    assert (probe.ingress_headroom, probe.egress_headroom) == (20.0, 20.0)
    # A constant fit needs no shaping; the rate rule is the caller's.
    allocation, probe = admission_search(
        make_view(VALLEY), request(1000.0), lambda sigma: 50.0, malleable=True
    )
    assert (allocation.sigma, allocation.tau, allocation.profile) == (0.0, 20.0, None)
    assert (probe.candidates, probe.reason) == (1, None)


# ----------------------------------------------------------------------
# FitProbe.candidates is a rank, not a visit count
# ----------------------------------------------------------------------
#: Both ports carry 30 MB/s over [10, 20) and 90 over [30, 50) — the same
#: pair, so 10, 20, 30 and 50 are breakpoints of both — and the egress port
#: loses 5 MB/s over [5, 90): a degradation edge at 5 (90 lies past every
#: start range below).  The distinct starts are sorted(set(...)) of
#: earliest = 0 and those instants inside (0, latest].
RANKED = [(10.0, 20.0, 30.0), (30.0, 50.0, 90.0)]
EDGE = [Degradation("egress", EGRESS, 5.0, 90.0, 5.0)]


@pytest.mark.parametrize(
    "volume, expected",
    [
        # latest = 80: starts 0, 5, 10, 20, 30, 50.  20 MB/s from 0 bounces
        # off the ingress port's [30, 50); the jump lands on 50, which fits:
        # two starts visited, six up to the chosen one.
        (2000.0, (50.0, 6, None)),
        # 4 MB/s fits from 0 (egress [30, 50) has 95 - 90 = 5 left).
        (400.0, (0.0, 1, None)),
        # latest = 30: starts 0, 5, 10, 20, 30.  70 MB/s from 0 bounces off
        # [30, 50) and the jump runs past them all: a reject counts all five.
        (7000.0, (None, 5, RejectReason.EGRESS_FULL)),
    ],
    ids=["jump-then-accept", "accept-at-earliest", "reject"],
)
def test_candidates_count_distinct_starts_up_to_the_stop(make_view, volume, expected):
    outcomes = []
    for policy in (MinRatePolicy(), Unpromised(MinRatePolicy())):
        probe = FitProbe()
        req = request(volume)
        allocation = earliest_fit(make_view(RANKED, EDGE), req, policy.bind(req), probe=probe)
        outcomes.append((allocation, probe))
    (allocation, probe), control = outcomes
    assert (allocation, probe) == control
    sigma = None if allocation is None else allocation.sigma
    assert (sigma, probe.candidates, probe.reason) == expected
