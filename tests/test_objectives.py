"""Tests for the optimisation objectives (§2.2–2.3)."""

import pytest

from repro.core import (
    Allocation,
    Platform,
    Request,
    RequestSet,
    ScheduleResult,
    guaranteed_count,
    guaranteed_rate,
    resource_utilization,
    resource_utilization_time_averaged,
)


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


def _requests():
    return RequestSet(
        [
            Request(0, 0, 0, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=40.0),
            Request(1, 0, 1, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=40.0),
            Request(2, 1, 0, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=40.0),
        ]
    )


def _result(requests, bws):
    result = ScheduleResult()
    for r, bw in zip(requests, bws):
        if bw is None:
            result.reject(r.rid)
        else:
            result.accept(Allocation.for_request(r, bw))
    return result


class TestResourceUtil:
    def test_scaled_denominator_excludes_idle_ports(self, platform):
        requests = _requests()
        # demand: ingress0 = 20 (r0 + r1), ingress1 = 10; egress0 = 20, egress1 = 10
        # all below capacity -> denominator = 0.5 * (30 + 30) = 30
        result = _result(requests, [10.0, 10.0, 10.0])
        assert resource_utilization(platform, requests, result) == pytest.approx(1.0)

    def test_caps_at_capacity(self):
        small = Platform.uniform(2, 2, 15.0)
        requests = _requests()
        # ingress0 demand 20 scaled to 15; rest 10
        # denom = 0.5 * ((15 + 10) + (15 + 10)) = 25
        result = _result(requests, [10.0, None, None])
        assert resource_utilization(small, requests, result) == pytest.approx(10.0 / 25.0)

    def test_zero_when_nothing_accepted(self, platform):
        requests = _requests()
        result = _result(requests, [None, None, None])
        assert resource_utilization(platform, requests, result) == 0.0

    def test_empty_requests(self, platform):
        assert resource_utilization(platform, RequestSet(), ScheduleResult()) == 0.0


class TestTimeAveragedVariants:
    def test_resource_utilization_time_averaged_bounds(self, platform):
        requests = _requests()
        result = _result(requests, [10.0, 10.0, 10.0])
        value = resource_utilization_time_averaged(platform, requests, result)
        # everything accepted at MinRate over full horizon -> utilisation 1
        assert value == pytest.approx(1.0)

    def test_partial_acceptance_scales(self, platform):
        requests = _requests()
        full = resource_utilization_time_averaged(platform, requests, _result(requests, [10.0, 10.0, 10.0]))
        partial = resource_utilization_time_averaged(platform, requests, _result(requests, [10.0, None, None]))
        assert partial == pytest.approx(full / 3)


class TestGuaranteed:
    def test_counts_threshold(self):
        requests = _requests()  # MinRate 10, MaxRate 40
        result = _result(requests, [40.0, 20.0, 10.0])
        # f = 0.5 -> threshold max(20, 10) = 20
        assert guaranteed_count(requests, result, f=0.5) == 2
        # f = 1.0 -> threshold 40
        assert guaranteed_count(requests, result, f=1.0) == 1
        # f -> 0: threshold MinRate = 10, all three qualify
        assert guaranteed_count(requests, result, f=1e-12) == 3

    def test_rate_normalised_by_total(self):
        requests = _requests()
        result = _result(requests, [40.0, None, None])
        assert guaranteed_rate(requests, result, f=1.0) == pytest.approx(1 / 3)

    def test_empty(self):
        assert guaranteed_rate(RequestSet(), ScheduleResult(), 0.5) == 0.0
