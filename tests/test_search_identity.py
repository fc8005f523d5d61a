"""The monotone jump decides nothing: promise on against promise off.

A ``monotone`` bandwidth policy lets the earliest-fit walk pass over every
start a blocker already rules out (``docs/CAPACITY.md``, "How the search
skips").  Here the 4,016-request hotspot stream goes through two gateways
in one process — one under the shipped policy, one under the same policy
behind a wrapper that makes no promise and is therefore searched candidate
by candidate, exactly as before the contract existed — and everything a
caller, an operator or a restart can see must be equal; a half-length
stream does the same for the default (one-shard, unbatched) gateway and
the ``bookahead`` scheduler.  Differential, so no pinned hash depends on the numpy version.

Every rule handed to a search is counted from the test's side, and
``FitProbe.candidates`` must equal the rates it asked for: the search counts
the starts it visits.  The vacuity guard compares the two gateways' walks:
the monotone one visits strictly fewer starts on a thousand searches.
"""

import pytest

from repro.core import Platform, ProblemInstance, booking
from repro.core.request import RequestSet
from repro.gateway import Gateway, Journal, twophase
from repro.gateway.invariants import check_gateway
from repro.schedulers import make_scheduler
from repro.schedulers.policies import BandwidthPolicy, FractionOfMaxPolicy, MinRatePolicy

from .conftest import CountedRule, hotspot_stream

PLATFORM = Platform.uniform(16, 16, 1000.0)
WAVE = 16


class Unpromised(BandwidthPolicy):
    """The wrapped policy's rates under its name, with ``monotone`` left unsaid."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def rate(self, volume, t_end, max_rate, start):
        return self.inner.rate(volume, t_end, max_rate, start)


@pytest.fixture
def searches(monkeypatch):
    """Every coordinator search's probe and rate-evaluation count (the
    fast path, which asks one rate before it, is not a search)."""
    seen = []

    def counted_search(ledger, request, rate_for, **kw):
        rule = CountedRule(rate_for)
        allocation, probe = booking.admission_search(ledger, request, rule, **kw)
        seen.append((probe, rule.calls))
        return allocation, probe

    monkeypatch.setattr(twophase, "admission_search", counted_search)
    return seen


def _gateway_run(policy, requests, shards):
    """Waves of sixteen through ``submit_many``."""
    gateway = Gateway(PLATFORM, num_shards=shards, batch_size=8, policy=policy, journal=Journal())
    tickets = []
    for i in range(0, len(requests), WAVE):
        wave = requests[i : i + WAVE]
        tickets += gateway.submit_many(
            [
                {"ingress": r.ingress, "egress": r.egress, "volume": r.volume, "deadline": r.t_end}
                for r in wave
            ],
            now=wave[-1].t_start,
        )
    decisions = [(t.rid, t.allocation, t.reject_reason) for t in tickets]
    return gateway, decisions


# Two cases that see each seed, shard count and policy once: the full 2×2×2
# product costs ~14 s and this file is budgeted 5 s of tier-1 time.
@pytest.mark.parametrize(
    "seed, shards, policy",
    [(1, 4, MinRatePolicy()), (7, 1, FractionOfMaxPolicy(0.5))],
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_gateway_decides_the_same_with_and_without_the_promise(seed, shards, policy, searches):
    assert policy.monotone and not Unpromised(policy).monotone
    requests = list(hotspot_stream(seed, 4016))
    gateway, decisions = _gateway_run(policy, requests, shards)
    promised = searches[:]
    searches.clear()
    control, control_decisions = _gateway_run(Unpromised(policy), requests, shards)
    assert decisions == control_decisions
    assert len(promised) == len(searches)
    fewer = 0
    for (probe, _), (control_probe, _) in zip(promised, searches):
        assert (probe.reason, probe.ingress_headroom, probe.egress_headroom) == (
            control_probe.reason,
            control_probe.ingress_headroom,
            control_probe.egress_headroom,
        )
        assert probe.candidates <= control_probe.candidates
        fewer += probe.candidates < control_probe.candidates
    assert vars(gateway.stats) == vars(control.stats)
    assert gateway.snapshot() == control.snapshot()
    # The header names the policy (equal here too); the ops below it are the history.
    assert gateway.journal.to_jsonl() == control.journal.to_jsonl()
    assert check_gateway(gateway, expect_quiesced=True).ok
    # Not vacuous: on a thousand searches the jump passed over starts the
    # control visited.
    assert fewer >= 1000
    assert 0 < gateway.stats.accepted < len(requests)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize(
    "policy", [MinRatePolicy(), Unpromised(MinRatePolicy())], ids=["min-bw", "unpromised"]
)
def test_candidates_are_the_rates_asked(policy, shards, searches):
    """``FitProbe.candidates`` is the number of starts the walk visited: one
    ``rate_for`` call each, exactly, on every search of a hotspot stream."""
    _gateway_run(policy, list(hotspot_stream(3, 1004)), shards)
    assert all(probe.candidates == calls for probe, calls in searches)
    # Not vacuous: hundreds of searches, most of them past their first start.
    assert len(searches) >= 300
    assert sum(calls > 1 for _, calls in searches) >= 250


def test_service_decides_the_same_with_and_without_the_promise():
    requests = list(hotspot_stream(7, 2008))
    planes = []
    for policy in (MinRatePolicy(), Unpromised(MinRatePolicy())):
        service = Gateway(PLATFORM, policy=policy, journal=Journal())
        decided = [
            service.submit(
                ingress=r.ingress, egress=r.egress, volume=r.volume, deadline=r.t_end, now=r.t_start
            )
            for r in requests
        ]
        planes.append((service, [(d.rid, d.allocation, d.reject_reason) for d in decided]))
    (service, decisions), (control, control_decisions) = planes
    assert decisions == control_decisions
    assert vars(service.stats) == vars(control.stats)
    assert service.snapshot() == control.snapshot()
    assert service.journal.to_jsonl() == control.journal.to_jsonl()


def test_bookahead_schedules_the_same_with_and_without_the_promise():
    problem = ProblemInstance(PLATFORM, RequestSet(hotspot_stream(1, 2008)))
    scheduler = make_scheduler("bookahead", policy=0.5)
    result = scheduler.schedule(problem)
    scheduler.policy = Unpromised(scheduler.policy)
    control = scheduler.schedule(problem)
    assert result.accepted == control.accepted
    assert result.rejection_reasons == control.rejection_reasons
    assert 0 < result.num_accepted < problem.num_requests
