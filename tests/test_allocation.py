"""Tests for Allocation, ScheduleResult and verify_schedule."""

import pytest

from repro.core import (
    Allocation,
    Platform,
    Request,
    RequestSet,
    ScheduleResult,
    ScheduleViolation,
    verify_schedule,
)


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


@pytest.fixture
def requests():
    return RequestSet(
        [
            Request(0, 0, 1, volume=500.0, t_start=0.0, t_end=50.0, max_rate=50.0),
            Request(1, 1, 0, volume=200.0, t_start=10.0, t_end=30.0, max_rate=20.0),
        ]
    )


class TestAllocation:
    def test_for_request_default_start(self, requests):
        alloc = Allocation.for_request(requests[0], bw=25.0)
        assert alloc.sigma == 0.0
        assert alloc.tau == pytest.approx(20.0)
        assert alloc.transferred == pytest.approx(500.0)

    def test_for_request_late_start(self, requests):
        alloc = Allocation.for_request(requests[0], bw=50.0, sigma=40.0)
        assert alloc.tau == pytest.approx(50.0)

    def test_duration(self):
        alloc = Allocation(0, 0, 1, bw=10.0, sigma=5.0, tau=15.0)
        assert alloc.duration == pytest.approx(10.0)

    def test_roundtrip(self):
        alloc = Allocation(3, 1, 0, bw=7.0, sigma=1.0, tau=9.0)
        assert alloc.to_dict() == {
            "rid": 3, "ingress": 1, "egress": 0, "bw": 7.0, "sigma": 1.0, "tau": 9.0
        }


class TestScheduleResult:
    def test_accept_reject_counts(self, requests):
        result = ScheduleResult()
        result.accept(Allocation.for_request(requests[0], 10.0))
        result.reject(1)
        assert result.num_accepted == 1
        assert result.num_rejected == 1
        assert result.accept_rate == pytest.approx(0.5)

    def test_double_decision_rejected(self, requests):
        result = ScheduleResult()
        result.accept(Allocation.for_request(requests[0], 10.0))
        with pytest.raises(ScheduleViolation):
            result.accept(Allocation.for_request(requests[0], 10.0))
        with pytest.raises(ScheduleViolation):
            result.reject(0)

    def test_empty_accept_rate(self):
        assert ScheduleResult().accept_rate == 0.0

    def test_allocations_sorted_by_sigma(self, requests):
        result = ScheduleResult()
        result.accept(Allocation.for_request(requests[1], 10.0))
        result.accept(Allocation.for_request(requests[0], 10.0))
        sigmas = [a.sigma for a in result.allocations()]
        assert sigmas == sorted(sigmas)


class TestVerifySchedule:
    def _ok_result(self, requests):
        result = ScheduleResult()
        result.accept(Allocation.for_request(requests[0], 10.0))
        result.accept(Allocation.for_request(requests[1], 10.0))
        return result

    def test_valid_passes(self, platform, requests):
        verify_schedule(platform, requests, self._ok_result(requests))

    def test_undecided_request_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation.for_request(requests[0], 10.0))
        with pytest.raises(ScheduleViolation, match="undecided"):
            verify_schedule(platform, requests, result)
        verify_schedule(platform, requests, result, require_all_decided=False)

    def test_unknown_rid_caught(self, platform, requests):
        result = self._ok_result(requests)
        result.reject(99)
        with pytest.raises(ScheduleViolation, match="unknown"):
            verify_schedule(platform, requests, result)

    def test_wrong_endpoints_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation(0, 1, 1, bw=10.0, sigma=0.0, tau=50.0))
        result.reject(1)
        with pytest.raises(ScheduleViolation, match="endpoints"):
            verify_schedule(platform, requests, result)

    def test_volume_mismatch_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation(0, 0, 1, bw=10.0, sigma=0.0, tau=10.0))  # only 100 MB
        result.reject(1)
        with pytest.raises(ScheduleViolation, match="carries"):
            verify_schedule(platform, requests, result)

    def test_rate_above_max_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation(0, 0, 1, bw=100.0, sigma=0.0, tau=5.0))  # max_rate 50
        result.reject(1)
        with pytest.raises(ScheduleViolation, match="MaxRate"):
            verify_schedule(platform, requests, result)

    def test_deadline_violation_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation(0, 0, 1, bw=10.0, sigma=20.0, tau=70.0))  # deadline 50
        result.reject(1)
        with pytest.raises(ScheduleViolation, match="deadline"):
            verify_schedule(platform, requests, result)
        # relaxed mode allows it
        verify_schedule(platform, requests, result, enforce_window=False)

    def test_early_start_caught(self, platform, requests):
        result = ScheduleResult()
        result.accept(Allocation(1, 1, 0, bw=20.0, sigma=0.0, tau=10.0))  # t_start 10
        result.reject(0)
        with pytest.raises(ScheduleViolation, match="before window"):
            verify_schedule(platform, requests, result)

    def test_capacity_violation_caught(self, platform):
        requests = RequestSet(
            [
                Request(i, 0, 1, volume=600.0, t_start=0.0, t_end=10.0, max_rate=60.0)
                for i in range(3)
            ]
        )
        result = ScheduleResult()
        for r in requests:
            result.accept(Allocation.for_request(r, 60.0))  # 180 > 100 capacity
        with pytest.raises(ScheduleViolation, match="capacity"):
            verify_schedule(platform, requests, result)

    def test_overshoot_is_judged_against_the_largest_port_without_numpy_arrays(self):
        # 10 MB/s over a 100 MB/s egress: within rtol x 1e6 (the largest
        # port, an ingress), beyond rtol x 100.
        platform = Platform([100.0, 1e6], [100.0, 100.0])
        requests = RequestSet(
            [Request(i, i, 0, volume=550.0, t_start=0.0, t_end=10.0, max_rate=55.0) for i in range(2)]
        )
        result = ScheduleResult()
        for r in requests:
            result.accept(Allocation.for_request(r, 55.0))
        verify_schedule(platform, requests, result, rtol=1e-4)
        with pytest.raises(ScheduleViolation, match="capacity"):
            verify_schedule(platform, requests, result, rtol=5e-6)
        # The check reads the capacity tuples: the cached arrays stay unbuilt.
        assert "ingress_capacity" not in vars(platform)
        assert "egress_capacity" not in vars(platform)
