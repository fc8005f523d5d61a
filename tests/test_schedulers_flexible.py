"""Tests for flexible-request heuristics (GREEDY and WINDOW) and policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    Platform,
    ProblemInstance,
    Request,
    RequestSet,
    verify_schedule,
)
from repro.schedulers import (
    FractionOfMaxPolicy,
    FullRatePolicy,
    GreedyFlexible,
    MinRatePolicy,
    WindowFlexible,
)
from repro.workload import paper_flexible_workload


def flex(rid, i, e, volume, t0, window, max_rate):
    return Request(rid, i, e, volume=volume, t_start=t0, t_end=t0 + window, max_rate=max_rate)


def problem(requests, capacity=100.0, m=2, n=2):
    return ProblemInstance(Platform.uniform(m, n, capacity), RequestSet(requests))


class TestPolicies:
    # rate(volume, t_end, max_rate, start): a request of 100 MB due at 10 s
    # (or 100 s) from a 50 MB/s host, opening at 0.
    def test_min_rate_policy_on_time(self):
        assert MinRatePolicy().rate(100.0, 10.0, 50.0, 0.0) == pytest.approx(10.0)

    def test_min_rate_policy_late_start(self):
        assert MinRatePolicy().rate(100.0, 10.0, 50.0, 5.0) == pytest.approx(20.0)

    def test_min_rate_policy_deadline_unreachable(self):
        assert MinRatePolicy().rate(100.0, 10.0, 50.0, 8.5) is None  # needs 66.7 > 50

    def test_fraction_policy_grants_f_times_max(self):
        assert FractionOfMaxPolicy(0.8).rate(100.0, 100.0, 50.0, 0.0) == pytest.approx(40.0)

    def test_fraction_policy_floors_at_min_rate(self):
        # f*max = 5 < MinRate 10 -> grant MinRate
        assert FractionOfMaxPolicy(0.1).rate(100.0, 10.0, 50.0, 0.0) == pytest.approx(10.0)

    def test_fraction_policy_deadline_floor_late(self):
        # start 6: deadline rate 25 > f*max 10 -> grant 25
        assert FractionOfMaxPolicy(0.2).rate(100.0, 10.0, 50.0, 6.0) == pytest.approx(25.0)

    def test_full_rate_policy(self):
        policy = FullRatePolicy()
        assert policy.f == 1.0
        assert policy.rate(100.0, 100.0, 50.0, 0.0) == pytest.approx(50.0)

    def test_fraction_policy_validates_f(self):
        with pytest.raises(ConfigurationError):
            FractionOfMaxPolicy(0.0)
        with pytest.raises(ConfigurationError):
            FractionOfMaxPolicy(1.5)

    def test_policy_names(self):
        assert MinRatePolicy().name == "min-bw"
        assert FractionOfMaxPolicy(0.8).name == "f=0.8"


class TestGreedyFlexible:
    def test_accepts_until_full(self):
        reqs = [flex(i, 0, 1, 1000.0, float(i), 100.0, 40.0) for i in range(4)]
        result = GreedyFlexible(policy=FullRatePolicy()).schedule(problem(reqs))
        # 40 MB/s each, capacity 100: first two fit, third rejected at t=2
        assert {0, 1} <= set(result.accepted)
        assert 2 in result.rejected

    def test_bandwidth_reclaimed_at_departure(self):
        # rid 0 at full port [0, 10); rid 1 arrives exactly at 10 -> fits
        reqs = [
            flex(0, 0, 1, 1000.0, 0.0, 100.0, 100.0),
            flex(1, 0, 1, 1000.0, 10.0, 100.0, 100.0),
        ]
        result = GreedyFlexible(policy=FullRatePolicy()).schedule(problem(reqs))
        assert result.num_accepted == 2

    def test_arrival_before_departure_rejected(self):
        reqs = [
            flex(0, 0, 1, 1000.0, 0.0, 100.0, 100.0),
            flex(1, 0, 1, 1000.0, 9.9, 10.5, 100.0),
        ]
        result = GreedyFlexible(policy=FullRatePolicy()).schedule(problem(reqs))
        assert 1 in result.rejected

    def test_min_rate_packs_more(self):
        reqs = [flex(i, 0, 1, 1000.0, 0.1 * i, 100.0, 50.0) for i in range(8)]
        greedy_min = GreedyFlexible(policy=MinRatePolicy()).schedule(problem(reqs))
        greedy_max = GreedyFlexible(policy=FullRatePolicy()).schedule(problem(reqs))
        # MinRate = 10 each -> all 8 (80 <= 100); FullRate = 50 -> only 2
        assert greedy_min.num_accepted == 8
        assert greedy_max.num_accepted == 2

    def test_schedules_verify(self):
        prob = paper_flexible_workload(1.0, 400, seed=3)
        for policy in (MinRatePolicy(), FractionOfMaxPolicy(0.5), FullRatePolicy()):
            result = GreedyFlexible(policy=policy).schedule(prob)
            verify_schedule(prob.platform, prob.requests, result)
            assert result.num_decided == prob.num_requests

    def test_sigma_equals_arrival(self):
        prob = paper_flexible_workload(2.0, 100, seed=6)
        result = GreedyFlexible().schedule(prob)
        for rid, alloc in result.accepted.items():
            assert alloc.sigma == pytest.approx(prob.requests.by_rid(rid).t_start)

    def test_empty(self):
        assert GreedyFlexible().schedule(problem([])).num_decided == 0


class TestWindowFlexible:
    def test_rejects_bad_t_step(self):
        with pytest.raises(ConfigurationError):
            WindowFlexible(t_step=0.0)

    def test_decisions_at_epoch_boundaries(self):
        reqs = [flex(0, 0, 1, 1000.0, 5.0, 1000.0, 100.0)]
        result = WindowFlexible(t_step=50.0).schedule(problem(reqs))
        assert result.num_accepted == 1
        alloc = result.accepted[0]
        # first arrival at 5.0 -> epoch starts there, decision at 5 + 50
        assert alloc.sigma == pytest.approx(55.0)

    def test_min_cost_candidate_wins(self):
        # two candidates on the same epoch; only one fits
        reqs = [
            flex(0, 0, 1, 9000.0, 0.0, 1000.0, 90.0),   # cost 0.9
            flex(1, 0, 1, 2000.0, 1.0, 1000.0, 20.0),   # cost 0.2 -> admitted first
        ]
        result = WindowFlexible(t_step=10.0, policy=FullRatePolicy()).schedule(problem(reqs))
        assert 1 in result.accepted
        # after rid 1, rid 0 would need 20+90=110 > 100 -> rejected
        assert 0 in result.rejected

    def test_port_balancing(self):
        # candidates across distinct ports all admitted
        reqs = [
            flex(0, 0, 0, 1000.0, 0.0, 1000.0, 80.0),
            flex(1, 0, 1, 1000.0, 1.0, 1000.0, 80.0),  # shares ingress 0: conflict
            flex(2, 1, 1, 1000.0, 2.0, 1000.0, 80.0),  # shares egress 1 with rid 1
        ]
        result = WindowFlexible(t_step=10.0, policy=FullRatePolicy()).schedule(problem(reqs))
        # min-cost packing admits 0 then 2 (disjoint); 1 conflicts with both
        assert {0, 2} <= set(result.accepted)
        assert 1 in result.rejected

    def test_deadline_enforcement_rejects_expired(self):
        # tiny window: by decision time the deadline cannot be met
        reqs = [flex(0, 0, 1, 1000.0, 0.0, 12.0, 100.0)]
        result = WindowFlexible(t_step=400.0).schedule(problem(reqs))
        assert 0 in result.rejected

    def test_schedules_verify(self):
        prob = paper_flexible_workload(0.5, 400, seed=13)
        for t_step in (50.0, 400.0):
            result = WindowFlexible(t_step=t_step).schedule(prob)
            verify_schedule(prob.platform, prob.requests, result)
            assert result.num_decided == prob.num_requests

    def test_all_starts_at_epochs(self):
        prob = paper_flexible_workload(1.0, 200, seed=14)
        t_step = 100.0
        result = WindowFlexible(t_step=t_step).schedule(prob)
        t_begin = min(r.t_start for r in prob.requests)
        for alloc in result.accepted.values():
            offset = (alloc.sigma - t_begin) / t_step
            assert offset == pytest.approx(round(offset), abs=1e-9)

    def test_empty(self):
        assert WindowFlexible().schedule(problem([])).num_decided == 0

    def test_names(self):
        assert WindowFlexible(t_step=400.0).name == "window[400s,min-bw]"
        assert GreedyFlexible(policy=FractionOfMaxPolicy(0.5)).name == "greedy[f=0.5]"


class TestPublishedShapes:
    """Cheap statistical checks of the paper's §5.3 claims."""

    def test_window_beats_greedy_heavy_load(self):
        prob = paper_flexible_workload(0.1, 800, seed=21)
        greedy = GreedyFlexible(policy=FullRatePolicy()).schedule(prob)
        window = WindowFlexible(t_step=400.0, policy=FullRatePolicy()).schedule(prob)
        assert window.accept_rate > greedy.accept_rate

    def test_policies_close_when_light(self):
        prob = paper_flexible_workload(5.0, 800, seed=22)
        greedy = GreedyFlexible(policy=FullRatePolicy()).schedule(prob)
        window = WindowFlexible(t_step=400.0, policy=FullRatePolicy()).schedule(prob)
        assert abs(window.accept_rate - greedy.accept_rate) < 0.08

    def test_smaller_f_accepts_more_when_light(self):
        prob = paper_flexible_workload(10.0, 800, seed=23)
        low = GreedyFlexible(policy=FractionOfMaxPolicy(0.5)).schedule(prob)
        high = GreedyFlexible(policy=FullRatePolicy()).schedule(prob)
        assert low.accept_rate > high.accept_rate


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    gap=st.floats(0.2, 10.0, allow_nan=False),
    t_step=st.floats(10.0, 1000.0, allow_nan=False),
    f=st.floats(0.1, 1.0, allow_nan=False),
)
def test_flexible_schedules_always_verify(seed, gap, t_step, f):
    """Property: online schedules on random workloads satisfy Eq. 1 and
    deadlines, whatever the policy and epoch length."""
    prob = paper_flexible_workload(gap, 100, seed=seed)
    for scheduler in (
        GreedyFlexible(policy=FractionOfMaxPolicy(f)),
        WindowFlexible(t_step=t_step, policy=FractionOfMaxPolicy(f)),
    ):
        result = scheduler.schedule(prob)
        verify_schedule(prob.platform, prob.requests, result)
        assert result.num_decided == prob.num_requests


class TestWindowVectorizedEdgeCases:
    def test_epoch_with_all_deadline_rejects(self):
        """Candidates whose deadline dies during the batch leave an empty
        pool; the epoch must be skipped cleanly."""
        reqs = [
            flex(0, 0, 1, 1000.0, 0.0, 11.0, 100.0),
            flex(1, 0, 1, 1000.0, 1.0, 11.0, 100.0),
        ]
        result = WindowFlexible(t_step=400.0).schedule(problem(reqs))
        assert result.num_rejected == 2
        assert set(result.rejection_reasons.values()) == {"deadline"}

    def test_single_candidate_pool(self):
        reqs = [flex(0, 0, 1, 1000.0, 0.0, 1000.0, 100.0)]
        result = WindowFlexible(t_step=10.0, policy=FullRatePolicy()).schedule(problem(reqs))
        assert result.num_accepted == 1

    def test_exact_float_tie_prefers_lower_rid(self):
        # identical requests -> identical costs; rid breaks the tie, and
        # capacity only admits one
        reqs = [
            flex(5, 0, 1, 1000.0, 0.0, 1000.0, 60.0),
            flex(2, 0, 1, 1000.0, 1.0, 1000.0, 60.0),
        ]
        result = WindowFlexible(t_step=10.0, policy=FullRatePolicy()).schedule(problem(reqs))
        assert 2 in result.accepted
        assert 5 in result.rejected
