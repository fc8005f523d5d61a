"""The monotone jump decides nothing: promise on against promise off.

A ``monotone`` bandwidth policy lets the earliest-fit walk pass over every
start a blocker already rules out (``docs/CAPACITY.md``, "How the search
skips").  Here the 4,016-request hotspot stream goes through two gateways
in one process — one under the shipped policy, one under the same policy
behind a wrapper that makes no promise and is therefore searched candidate
by candidate, exactly as before the contract existed — and everything a
caller, an operator or a restart can see must be equal; a half-length
stream does the same for ``ReservationService`` and the ``bookahead``
scheduler.  Differential, so no pinned hash depends on the numpy version.

The vacuity guard reads the work from the test's side: every rule handed to
the coordinator is counted, so "took the jump" is "asked for fewer rates
than there were candidates".
"""

import pytest

from repro.control.journal import Journal
from repro.control.service import ReservationService
from repro.core import Platform, ProblemInstance
from repro.core.request import RequestSet
from repro.gateway import Gateway
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

    def assign(self, request, start=None):
        return self.inner.assign(request, start)


def _gateway_run(policy, requests, shards):
    """Waves of sixteen through ``submit_many``; every search's probe and
    rate-evaluation count is collected at the coordinator."""
    gateway = Gateway(PLATFORM, num_shards=shards, batch_size=8, policy=policy, journal=Journal())
    searches = []
    reserve = gateway.coordinator.reserve

    def counted_reserve(request, rate_for, now, **kw):
        rule = CountedRule(rate_for)
        outcome = reserve(request, rule, now, **kw)
        searches.append((outcome.probe, rule.calls))
        return outcome

    gateway.coordinator.reserve = counted_reserve
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
    return gateway, decisions, searches


# Two cases that see each seed, shard count and policy once: the full 2×2×2
# product costs ~14 s and this file is budgeted 5 s of tier-1 time.
@pytest.mark.parametrize(
    "seed, shards, policy",
    [(1, 4, MinRatePolicy()), (7, 1, FractionOfMaxPolicy(0.5))],
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_gateway_decides_the_same_with_and_without_the_promise(seed, shards, policy):
    assert policy.monotone and not Unpromised(policy).monotone
    requests = list(hotspot_stream(seed, 4016))
    gateway, decisions, searches = _gateway_run(policy, requests, shards)
    control, control_decisions, control_searches = _gateway_run(
        Unpromised(policy), requests, shards
    )
    assert decisions == control_decisions
    assert [probe for probe, _ in searches] == [probe for probe, _ in control_searches]
    assert vars(gateway.stats) == vars(control.stats)
    assert gateway.snapshot() == control.snapshot()
    # The header names the policy (equal here too); the ops below it are the history.
    assert gateway.journal.to_jsonl() == control.journal.to_jsonl()
    assert check_gateway(gateway, expect_quiesced=True).ok
    # Not vacuous: a thousand long searches took the jump, the control none.
    # (A search that missed the fast path asked it for one rate first.)
    assert sum(p.candidates >= 50 and calls < p.candidates for p, calls in searches) >= 1000
    assert all(calls >= p.candidates for p, calls in control_searches)
    assert 0 < gateway.stats.accepted < len(requests)


def test_service_decides_the_same_with_and_without_the_promise():
    requests = list(hotspot_stream(7, 2008))
    planes = []
    for policy in (MinRatePolicy(), Unpromised(MinRatePolicy())):
        service = ReservationService(PLATFORM, policy=policy, journal=Journal())
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
