"""The book-ahead search against a naive oracle, and its work gate.

:func:`repro.core.booking.earliest_fit` fails most candidate starts from a
remembered blocker instead of probing the ledger (``docs/CAPACITY.md``,
"How the search skips").  The oracle below is the walk it replaced,
written out: candidates from each port's *whole* ``breakpoints()``, every
candidate put to both of the pair's ``Port``\\ s.  On seeded random ledgers
— plain, one side degraded, both sides degraded; a ``PortLedger`` and the
gateway's ``TwoPhaseCoordinator`` over two shard brokers — and under every
bandwidth policy plus a deliberately non-monotone ``rate_for``, both must
return equal ``Allocation``s and equal ``FitProbe``s (candidate count,
reason, both headrooms).  The policies are handed over as
``policy.bind(request)``, so they take the monotone jump (starts under a
blocker are not even visited); the non-monotone closure declares nothing
and is the per-candidate control.

A degraded port answers a failed probe with the empty blocker
``(t0, t0)`` — for itself only: while it is what blocks, nothing is skipped
and every candidate is visited and probed; when its healthy peer blocks, the
peer's real interval comes back and the jump is taken.  The two
``test_degraded_pair*`` cases pin that this is what happens, and the
differential cases pin that it decides identically.  The finish-edge tests
build the ledgers on which the jump must *not* be taken — a blocker
beginning within the deadline tolerance of a probe's finish — and pin that
it is not.

The last test is the deterministic work gate: probe, rate-evaluation and
candidate counts repeat exactly, so "how many questions does a hotspot
search ask" is gated on counts, without a clock.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Degradation, Platform, PortLedger, Request
from repro.core.booking import (
    FitProbe,
    RejectReason,
    book_earliest,
    deadline_tolerance,
    earliest_fit,
)
from repro.core.allocation import Allocation
from repro.core.ledger import Port
from repro.gateway import ShardBroker, ShardMap, TwoPhaseCoordinator
from repro.schedulers.policies import FractionOfMaxPolicy, FullRatePolicy, MinRatePolicy

from .conftest import CountedRule, hotspot_stream

PORTS = 4
CAPACITY = 100.0
SEEDS = [0, 1, 2, 3, 5, 8]
DEGRADED = {"plain": (), "ingress-degraded": ("ingress",), "both-degraded": ("ingress", "egress")}


def naive_earliest_fit(ledger, request, rate_for, *, not_before=None):
    """The probe-every-candidate walk; returns ``(allocation, probe)``."""
    probe = FitProbe()
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    latest = request.t_end - request.min_duration
    if latest < earliest:
        probe.reason = RejectReason.WINDOW_INFEASIBLE
        return None, probe
    starts = {earliest}
    port_in, port_out = ledger.ports(request.ingress, request.egress)
    for t in (
        *port_in.usage.breakpoints(),
        *port_out.usage.breakpoints(),
        *port_in.edges(),
        *port_out.edges(),
    ):
        if earliest < t <= latest:
            starts.add(float(t))
    tol = deadline_tolerance(request.t_end)
    first_headroom = None
    for sigma in sorted(starts):
        probe.candidates += 1
        bw = rate_for(sigma)
        if bw is None or bw <= 0:
            continue
        tau = sigma + request.volume / bw
        if tau > request.t_end + tol:
            continue
        if port_in.blocker(sigma, tau, bw) is None and port_out.blocker(sigma, tau, bw) is None:
            return Allocation.for_request(request, bw, sigma=sigma), probe
        if first_headroom is None:
            first_headroom = (port_in.free_capacity(sigma, tau), port_out.free_capacity(sigma, tau))
    if first_headroom is None:
        probe.reason = RejectReason.MINRATE_EXCEEDS_MAXRATE
    else:
        probe.ingress_headroom, probe.egress_headroom = first_headroom
        probe.reason = (
            RejectReason.INGRESS_FULL
            if first_headroom[0] <= first_headroom[1]
            else RejectReason.EGRESS_FULL
        )
    return None, probe


# ----------------------------------------------------------------------
# Seeded worlds: one booking list, served by a PortLedger or by brokers
# ----------------------------------------------------------------------
def _world(seed, degraded_sides):
    """Random admitted bookings and degradations on a small busy platform."""
    rng = random.Random(seed)
    platform = Platform.uniform(PORTS, PORTS, CAPACITY)
    ledger = PortLedger(platform)
    bookings = []
    for _ in range(90):
        i, e = rng.randrange(PORTS), rng.randrange(PORTS)
        t0 = rng.uniform(0.0, 600.0)
        t1 = t0 + rng.uniform(4.0, 90.0)
        bw = rng.uniform(5.0, 55.0)
        if ledger.fits(i, e, t0, t1, bw):
            ledger.allocate(i, e, t0, t1, bw)
            bookings.append((i, e, t0, t1, bw))
    degradations = []
    for side in degraded_sides:
        for port in range(PORTS):
            for _ in range(3):
                t0 = rng.uniform(0.0, 600.0)
                degradations.append(
                    Degradation(side, port, t0, t0 + rng.uniform(5.0, 80.0), rng.uniform(10.0, 100.0))
                )
    for degradation in degradations:
        ledger.degrade(degradation)
    return rng, platform, ledger, bookings, degradations


def _brokers(platform, bookings, degradations, num_shards=2):
    """The same world on shard brokers (port ``p`` lives on shard ``p % 2``)."""
    shard_map = ShardMap(platform, num_shards)
    brokers = [ShardBroker(s, shard_map) for s in range(num_shards)]
    for i, e, t0, t1, bw in bookings:
        brokers[shard_map.shard_of("ingress", i)].restore("ingress", i, ((t0, t1, bw),))
        brokers[shard_map.shard_of("egress", e)].restore("egress", e, ((t0, t1, bw),))
    for degradation in degradations:
        brokers[shard_map.shard_of(degradation.side, degradation.port)].degrade(degradation)
    return shard_map, brokers


def _requests(rng, n=40):
    for rid in range(n):
        t_start = rng.uniform(0.0, 450.0)
        window = rng.uniform(20.0, 260.0)
        yield Request(
            rid=rid,
            ingress=rng.randrange(PORTS),
            egress=rng.randrange(PORTS),
            volume=window * rng.uniform(3.0, 45.0),
            t_start=t_start,
            t_end=t_start + window,
            max_rate=CAPACITY,
        )


def _zigzag(request):
    """A ``rate_for`` no policy would write: not monotone in ``sigma``.

    Bounces between the deadline floor and MaxRate with the phase of the
    candidate start, and has no rate at all for some starts — the memo
    must stay exact when a later candidate asks for *less* than the
    blocked rate.
    """

    def rate_for(sigma):
        floor = MinRatePolicy().assign(request, sigma)
        phase = (math.sin(sigma * 12.9898) + 1.0) / 2.0
        if floor is None or phase < 0.08:
            return None
        return floor + phase * (request.max_rate - floor)

    return rate_for


# The shipped policies go through ``policy.bind`` and so through the monotone
# jump; the zigzag closure declares nothing and is the per-candidate control.
RATE_RULES = {
    "min-bw": MinRatePolicy().bind,
    "f=0.5": FractionOfMaxPolicy(0.5).bind,
    "full-rate": FullRatePolicy().bind,
    "zigzag": _zigzag,
}


def _assert_same_search(ledger, request, rate_for, not_before):
    expected, expected_probe = naive_earliest_fit(
        ledger, request, rate_for, not_before=not_before
    )
    probe = FitProbe()
    allocation = earliest_fit(ledger, request, rate_for, not_before=not_before, probe=probe)
    assert allocation == expected
    assert probe == expected_probe
    # Without a probe the search decides the same (it skips the headroom reads).
    assert earliest_fit(ledger, request, rate_for, not_before=not_before) == expected
    return allocation, probe


@pytest.mark.parametrize("rule", RATE_RULES)
@pytest.mark.parametrize("degraded", DEGRADED)
def test_port_ledger_search_equals_naive_walk(degraded, rule):
    late_accepts = capacity_rejects = deepest = 0
    for seed in SEEDS:
        rng, _, ledger, _, _ = _world(seed, DEGRADED[degraded])
        for request in _requests(rng):
            not_before = request.t_start + 7.5 if request.rid % 5 == 0 else None
            allocation, probe = _assert_same_search(
                ledger, request, RATE_RULES[rule](request), not_before
            )
            late_accepts += allocation is not None and probe.candidates > 1
            capacity_rejects += probe.ingress_headroom is not None
            deepest = max(deepest, probe.candidates)
            if allocation is not None and request.rid % 2:
                # Keep the ledger moving: later requests search a profile
                # the earlier ones changed.
                ledger.allocate(
                    request.ingress, request.egress, allocation.sigma, allocation.tau, allocation.bw
                )
    # The streams must reach accepts past the first candidate, capacity
    # rejects and deep scans, or the equalities above compare nothing.
    assert late_accepts >= 10
    assert capacity_rejects >= 10
    assert deepest >= 20


@pytest.mark.parametrize("rule", RATE_RULES)
@pytest.mark.parametrize("degraded", DEGRADED)
def test_pair_view_search_equals_naive_walk(degraded, rule):
    cross_shard = 0
    for seed in SEEDS[:3]:
        rng, platform, ledger, bookings, degradations = _world(seed, DEGRADED[degraded])
        shard_map, brokers = _brokers(platform, bookings, degradations)
        coordinator = TwoPhaseCoordinator(brokers, shard_map)
        for request in _requests(rng):
            cross_shard += not shard_map.is_local(request.ingress, request.egress)
            rate_for = RATE_RULES[rule](request)
            allocation, probe = _assert_same_search(coordinator, request, rate_for, None)
            # ... and the brokers' ports answer like the one ledger holding it all.
            ledger_probe = FitProbe()
            assert earliest_fit(ledger, request, rate_for, probe=ledger_probe) == allocation
            assert ledger_probe == probe
    assert cross_shard >= 30


# ----------------------------------------------------------------------
# What the memo does and does not skip
# ----------------------------------------------------------------------
@pytest.fixture
def blocker_calls(monkeypatch):
    """Counts ``Port.blocker`` calls (the search's only capacity probe: one
    per candidate the ingress port refuses, two otherwise)."""
    calls = []
    original = Port.blocker

    def counting(self, t0, t1, bw):
        calls.append((t0, t1, bw))
        return original(self, t0, t1, bw)

    monkeypatch.setattr(Port, "blocker", counting)
    return calls


def _hot_ledger():
    """Forty breakpoints of low usage, all under one long 90 MB/s booking."""
    ledger = PortLedger(Platform.uniform(1, 1, CAPACITY))
    ledger.allocate(0, 0, 0.0, 500.0, 90.0)
    for k in range(20):
        ledger.allocate(0, 0, 10.0 + 20.0 * k, 20.0 + 20.0 * k, 5.0)
    return ledger


def test_one_hot_segment_costs_one_probe(blocker_calls):
    ledger = _hot_ledger()
    request = Request(
        rid=0, ingress=0, egress=0, volume=20000.0, t_start=0.0, t_end=700.0, max_rate=CAPACITY
    )
    probe = FitProbe()
    blocker_calls.clear()  # allocate() probed too
    allocation = earliest_fit(ledger, request, probe=probe)
    # The first probe bounces off the last hot segment, [400, 500); every
    # start before 500 is failed from memory; the probe at 500 fits.
    assert allocation is not None and allocation.sigma == 500.0
    assert probe.candidates == 42
    assert blocker_calls == [(0.0, 700.0, 20000.0 / 700.0)] + 2 * [(500.0, 700.0, 100.0)]


def _hot_pair_search(degraded_side, blocker_calls):
    """The hot ledger with one side degraded (outside the window: no
    decision moves), searched once."""
    ledger = _hot_ledger()
    ledger.degrade(Degradation(degraded_side, 0, 800.0, 900.0, 10.0))
    request = Request(
        rid=0, ingress=0, egress=0, volume=20000.0, t_start=0.0, t_end=700.0, max_rate=CAPACITY
    )
    blocker_calls.clear()
    probe = FitProbe()
    rule = CountedRule(MinRatePolicy().bind(request))
    allocation = earliest_fit(ledger, request, rule, probe=probe)
    assert allocation is not None and allocation.sigma == 500.0
    assert probe.candidates == 42
    return ledger, rule


def test_degraded_pairs_probe_every_candidate(blocker_calls):
    """The port that blocks is the degraded one: its empty blocker teaches
    the walk nothing, so every candidate is visited and probed."""
    ledger, rule = _hot_pair_search("ingress", blocker_calls)
    # 41 starts bounce off the ingress port; the 42nd is put to both ports.
    assert len(blocker_calls) == 41 + 2
    assert rule.calls == 42
    assert ledger.blocker(0, 0, 0.0, 100.0, 50.0) == (0.0, 0.0)


def test_degraded_pair_blocked_by_its_healthy_port_still_jumps(blocker_calls):
    """The healthy ingress port is asked first and names [400, 500): the
    degraded egress port is only asked where the ingress port has room."""
    ledger, rule = _hot_pair_search("egress", blocker_calls)
    assert len(blocker_calls) == 1 + 2
    assert rule.calls == 2
    assert ledger.blocker(0, 0, 0.0, 100.0, 50.0) == (90.0, 100.0)


# ----------------------------------------------------------------------
# Where the monotone jump must not be taken
# ----------------------------------------------------------------------
# Finish times are monotone in the reals and only to within a few ulps in
# floats: under MIN-BW every start "finishes at t_end", give or take one.
# A blocker that begins that close to a probe's finish may therefore lie
# clear of a *later* start's interval, so the walk tests those starts one
# by one (``blocked_from + deadline_tolerance > tau``: no jump).
T_END = 100.0
JUST_BEFORE, JUST_AFTER = math.nextafter(T_END, -math.inf), math.nextafter(T_END, math.inf)


def _edge_ledger(hot_from):
    """Sixteen quiet breakpoints in the start range and one 95 MB/s booking
    over ``[hot_from, 200)``."""
    ledger = PortLedger(Platform.uniform(1, 1, CAPACITY))
    for k in range(1, 9):
        ledger.allocate(0, 0, 10.0 * k, 10.0 * k + 5.0, 5.0)
    ledger.allocate(0, 0, hot_from, 200.0, 95.0)
    return ledger


def _edge_request(volume):
    return Request(
        rid=0, ingress=0, egress=0, volume=volume, t_start=0.0, t_end=T_END, max_rate=CAPACITY
    )


def test_a_blocker_at_the_finish_edge_is_walked_not_jumped():
    request = _edge_request(2344.6)
    bound = MinRatePolicy().bind(request)
    finish = {sigma: sigma + request.volume / bound(sigma) for sigma in (0.0, 10.0, 20.0, 30.0)}
    # The float fact this test stands on: the start at 30 finishes one ulp
    # *before* the starts at 0, 10 and 20 do.
    assert finish[0.0] == finish[10.0] == finish[20.0] == T_END
    assert finish[30.0] == JUST_BEFORE
    rule = CountedRule(bound)
    ledger = _edge_ledger(hot_from=JUST_BEFORE)
    allocation, probe = _assert_same_search(ledger, request, rule, None)
    # [0, 100) bounces off [JUST_BEFORE, 200); a jump to 200 would refuse a
    # request that fits at 30, where [30, JUST_BEFORE) stays clear of it.
    assert allocation is not None and allocation.sigma == 30.0
    assert probe.candidates == 6  # 0, 10, 15, 20, 25, 30
    # Three searches ran (oracle, with probe, without): each visited all six.
    assert rule.calls == 3 * 6


def test_a_blocker_clear_of_the_finish_edge_is_jumped():
    request = _edge_request(2344.6)
    rule = CountedRule(MinRatePolicy().bind(request))
    ledger = _edge_ledger(hot_from=T_END - 1.0)
    probe = FitProbe()
    assert earliest_fit(ledger, request, rule, probe=probe) is None
    assert probe.reason is RejectReason.INGRESS_FULL
    # Every start finishes past 99: one evaluation, one probe, then past the end.
    assert probe.candidates == 15  # 0, then 10, 15, ... 75
    assert rule.calls == 1
    assert naive_earliest_fit(ledger, request, rule)[1] == probe


@settings(max_examples=200, deadline=None)
@given(
    volume=st.floats(200.0, 9000.0).map(lambda v: round(v, 1)),
    hot_from=st.sampled_from(
        [JUST_BEFORE, T_END, JUST_AFTER, T_END - 5e-8, T_END + 5e-8, T_END - 2e-7, T_END - 1.0]
    ),
    rule=st.sampled_from(["min-bw", "f=0.5", "full-rate"]),
    not_before=st.sampled_from([None, 12.5]),
)
def test_finish_edge_blockers_equal_naive_walk(volume, hot_from, rule, not_before):
    request = _edge_request(volume)
    _assert_same_search(_edge_ledger(hot_from), request, RATE_RULES[rule](request), not_before)


# ----------------------------------------------------------------------
# Deterministic work gate
# ----------------------------------------------------------------------
def test_hotspot_search_asks_few_questions(blocker_calls):
    """4,016 hotspot requests: many candidates per search, few probes, and
    (the rule being monotone) as few rate evaluations."""
    ledger = PortLedger(Platform.uniform(16, 16, 1000.0))
    policy = MinRatePolicy()
    searches = candidates = evaluations = 0
    for request in hotspot_stream(1, 4016):
        probe = FitProbe()
        rule = CountedRule(policy.bind(request))
        book_earliest(ledger, request, rule, probe=probe)
        searches += 1
        candidates += probe.candidates
        evaluations += rule.calls
    assert candidates / searches >= 50
    # Port questions: up to two per probe, two more when the booking commits.
    assert len(blocker_calls) / searches <= 8
    assert evaluations / searches <= 8
