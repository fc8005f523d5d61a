"""The ``monotone`` contract of :class:`BandwidthPolicy`, and policy names.

A policy that declares ``monotone = True`` promises the earliest-fit search
two things about any one request as the start ``sigma`` grows: the granted
rate never decreases (and ``None`` is final), and the finish
``sigma + vol / rate`` never falls more than ``deadline_tolerance(t_end)``
below an earlier one.  The search skips unvisited starts on the strength of
that promise, so it is checked here for every shipped policy, on the float
edges where it could break; what the search does with it is held to the
naive walk in ``tests/test_booking_sweep.py``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Platform, PortLedger, Request
from repro.core.booking import FitProbe, deadline_tolerance, earliest_fit
from repro.core.request import deadline_rate
from repro.schedulers.policies import (
    BandwidthPolicy,
    FractionOfMaxPolicy,
    FullRatePolicy,
    MinRatePolicy,
    policy_from_name,
)

from .conftest import CountedRule

fractions = st.floats(0.0, 1.0, exclude_min=True)
policies = st.one_of(
    st.just(MinRatePolicy()), st.just(FullRatePolicy()), st.builds(FractionOfMaxPolicy, fractions)
)


@st.composite
def requests(draw):
    t_start = draw(st.floats(0.0, 1e6))
    window = draw(st.floats(1e-3, 1e5))
    max_rate = draw(st.floats(1e-2, 1e4))
    # MinRate = share × MaxRate, so the request is valid and, at share 1, rigid.
    share = draw(st.floats(1e-6, 1.0))
    t_end = t_start + window
    return Request(0, 0, 0, share * max_rate * (t_end - t_start), t_start, t_end, max_rate)


@st.composite
def ascending_starts(draw, request):
    """Starts across the window, its float edges and their neighbours."""
    edges = [request.t_start, request.t_end - request.min_duration, request.t_end]
    picks = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    inside = [request.t_start + u * (request.t_end - request.t_start) for u in picks]
    around = [math.nextafter(t, side) for t in edges + inside[:3] for side in (-math.inf, math.inf)]
    return sorted(edges + inside + around)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), policy=policies, request=requests())
def test_shipped_policies_keep_the_monotone_promise(data, policy, request):
    assert policy.monotone
    rule = policy.bind(request)
    assert rule.monotone
    tolerance = deadline_tolerance(request.t_end)
    last_rate, latest_finish = 0.0, -math.inf
    for sigma in data.draw(ascending_starts(request)):
        rate = rule(sigma)
        assert rate == policy.rate(request.volume, request.t_end, request.max_rate, sigma)
        if rate is None:
            last_rate = math.inf  # final: any later rate fails the next comparison
            continue
        assert rate >= last_rate, f"rate fell at {sigma!r}"
        finish = sigma + request.volume / rate
        assert finish >= latest_finish - tolerance, f"finish fell at {sigma!r}"
        last_rate, latest_finish = rate, max(latest_finish, finish)


# ----------------------------------------------------------------------
# Who has made the promise
# ----------------------------------------------------------------------
class Halved(MinRatePolicy):
    """Overrides ``rate`` and says nothing: the parent's promise is not inherited."""

    def rate(self, volume, t_end, max_rate, start):
        rate = super().rate(volume, t_end, max_rate, start)
        return None if rate is None else max(rate, max_rate / 2)


class HalvedAndSworn(Halved):
    """Overrides ``rate`` and declares beside it."""

    monotone = True

    def rate(self, volume, t_end, max_rate, start):
        return super().rate(volume, t_end, max_rate, start)


class Renamed(FractionOfMaxPolicy):
    """Leaves ``rate`` alone: still the parent's rule, still its promise."""


class Silent(BandwidthPolicy):
    def rate(self, volume, t_end, max_rate, start):
        return max_rate


def test_the_promise_belongs_to_the_class_that_writes_rate():
    assert not BandwidthPolicy.monotone
    assert not Silent.monotone
    assert not Halved.monotone
    assert HalvedAndSworn.monotone
    assert Renamed.monotone


@pytest.mark.parametrize(
    "policy, evaluations",
    [(MinRatePolicy(), 2), (HalvedAndSworn(), 3), (Halved(), 42), (Silent(), 42)],
    ids=lambda value: type(value).__name__ if isinstance(value, BandwidthPolicy) else str(value),
)
def test_an_undeclared_policy_is_searched_start_by_start(policy, evaluations):
    ledger = PortLedger(Platform.uniform(1, 1, 100.0))
    ledger.allocate(0, 0, 0.0, 500.0, 90.0)
    for k in range(20):
        ledger.allocate(0, 0, 10.0 + 20.0 * k, 20.0 + 20.0 * k, 5.0)
    request = Request(0, 0, 0, 20000.0, 0.0, 900.0, 100.0)
    rule = CountedRule(policy.bind(request))
    probe = FitProbe()
    allocation = earliest_fit(ledger, request, rule, probe=probe)
    assert allocation is not None and allocation.sigma == 500.0
    # 42 starts up to 500: the undeclared policies visit them all.
    assert probe.candidates == rule.calls == evaluations


class Unsworn(MinRatePolicy):
    """Keeps the MinRate rule but withdraws the promise."""

    monotone = False


class Rerated(MinRatePolicy):
    """Writes a ``rate`` of its own: its rule is what it binds."""

    def rate(self, volume, t_end, max_rate, start):
        return max_rate


def test_min_rate_binds_the_rule_itself_while_its_rate_is_the_rule():
    request = Request(0, 0, 0, 500.0, 0.0, 100.0, 50.0)
    rule = MinRatePolicy().bind(request)
    # One frame per start: the search calls deadline_rate directly.
    assert MinRatePolicy.rate is deadline_rate
    assert rule.func is deadline_rate and rule.monotone
    assert Unsworn().bind(request).func is deadline_rate and not Unsworn().bind(request).monotone
    for policy in (Halved(), HalvedAndSworn()):
        bound = policy.bind(request)
        assert bound.func != deadline_rate and bound.monotone == type(policy).monotone
        assert bound(10.0) == policy.rate(500.0, 100.0, 50.0, 10.0) == 25.0
    assert Rerated().bind(request)(10.0) == 50.0 and not Rerated.monotone
    assert rule(10.0) == MinRatePolicy().rate(500.0, 100.0, 50.0, 10.0) == 500.0 / 90.0


# ----------------------------------------------------------------------
# Names round-trip (the journal header stores ``policy.name``)
# ----------------------------------------------------------------------
@settings(max_examples=500, deadline=None)
@given(f=fractions)
def test_policy_names_round_trip(f):
    assert policy_from_name("0.5") == FractionOfMaxPolicy(0.5)
    policy = FractionOfMaxPolicy(f)
    assert policy_from_name(policy.name) == policy
    assert policy_from_name(policy.name).f == f
    assert policy_from_name(policy.name[2:]) == policy  # a bare f reads the same


def test_policy_names_keep_their_short_spelling():
    assert MinRatePolicy().name == "min-bw" and policy_from_name("min-bw") == MinRatePolicy()
    assert FractionOfMaxPolicy(0.8).name == "f=0.8"
    assert FractionOfMaxPolicy(0.5).name == "f=0.5"
    assert FullRatePolicy().name == "f=1"
    assert FractionOfMaxPolicy(1 / 3).name == "f=0.3333333333333333"

