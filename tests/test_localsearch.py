"""Tests for the order-space local search scheduler."""

import pytest

from repro.core import ConfigurationError, verify_schedule
from repro.exact import max_requests_rigid_exact
from repro.schedulers import (
    FCFSRigid,
    LocalSearchScheduler,
)
from repro.workload import paper_flexible_workload, paper_rigid_workload


class TestLocalSearchRigid:
    def test_valid_and_complete(self):
        prob = paper_rigid_workload(8.0, 120, seed=1)
        result = LocalSearchScheduler(iterations=60, restarts=2).schedule(prob)
        verify_schedule(prob.platform, prob.requests, result)
        assert result.num_decided == prob.num_requests

    def test_never_worse_than_fcfs(self):
        # the first restart decodes the FCFS order, so the search result
        # dominates plain FCFS by construction
        for seed in range(4):
            prob = paper_rigid_workload(12.0, 80, seed=seed)
            search = LocalSearchScheduler(iterations=40, restarts=1).schedule(prob)
            fcfs = FCFSRigid().schedule(prob)
            assert search.num_accepted >= fcfs.num_accepted

    def test_never_beats_exact(self):
        for seed in range(3):
            prob = paper_rigid_workload(8.0, 14, seed=seed)
            search = LocalSearchScheduler(iterations=120, restarts=3).schedule(prob)
            exact = max_requests_rigid_exact(prob)
            assert search.num_accepted <= exact.num_accepted

    def test_often_reaches_exact_on_small(self):
        hits = 0
        for seed in range(5):
            prob = paper_rigid_workload(8.0, 12, seed=seed)
            search = LocalSearchScheduler(iterations=200, restarts=4).schedule(prob)
            if search.num_accepted == max_requests_rigid_exact(prob).num_accepted:
                hits += 1
        assert hits >= 3

    def test_deterministic_for_seed(self):
        prob = paper_rigid_workload(8.0, 60, seed=2)
        a = LocalSearchScheduler(iterations=50, seed=7).schedule(prob)
        b = LocalSearchScheduler(iterations=50, seed=7).schedule(prob)
        assert set(a.accepted) == set(b.accepted)

    def test_rejects_flexible_in_rigid_mode(self):
        prob = paper_flexible_workload(2.0, 20, seed=1)
        with pytest.raises(ConfigurationError):
            LocalSearchScheduler().schedule(prob)


class TestValidation:
    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            LocalSearchScheduler(iterations=-1)
        with pytest.raises(ConfigurationError):
            LocalSearchScheduler(restarts=0)

    def test_empty(self):
        from repro.core import Platform, ProblemInstance, RequestSet

        prob = ProblemInstance(Platform.uniform(1, 1, 10.0), RequestSet())
        assert LocalSearchScheduler().schedule(prob).num_decided == 0
