"""Tests for ProblemInstance."""

import pytest

from repro.core import Platform, ProblemInstance, Request, RequestSet


@pytest.fixture
def problem():
    platform = Platform.uniform(2, 2, 100.0)
    requests = RequestSet(
        [
            Request(0, 0, 1, volume=1000.0, t_start=0.0, t_end=100.0, max_rate=50.0),
            Request(1, 1, 0, volume=500.0, t_start=50.0, t_end=150.0, max_rate=10.0),
        ]
    )
    return ProblemInstance(platform, requests)


class TestBasics:
    def test_num_requests(self, problem):
        assert problem.num_requests == 2

    def test_offered_load_rate(self, problem):
        # total volume 1500 over horizon 150 -> 10 MB/s over 200
        assert problem.offered_load_rate() == pytest.approx(10.0 / 200.0)

    def test_empty_loads(self):
        p = ProblemInstance(Platform.uniform(1, 1, 10.0), RequestSet())
        assert p.offered_load_rate() == 0.0
