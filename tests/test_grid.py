"""Tests for the grid job co-allocation layer."""

import numpy as np
import pytest

from repro.core import InvalidRequestError, Platform, Request, ConfigurationError
from repro.grid import GridJob, JobSimulator, random_jobs
from repro.schedulers import FractionOfMaxPolicy, GreedyFlexible, MinRatePolicy


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


def job(rid, volume=1000.0, window=100.0, max_rate=50.0, cpus=4, cpu_time=200.0, t0=0.0):
    request = Request(rid, 0, 1, volume=volume, t_start=t0, t_end=t0 + window, max_rate=max_rate)
    return GridJob(request=request, cpus=cpus, cpu_time=cpu_time)


class TestGridJob:
    def test_properties(self):
        j = job(3)
        assert j.rid == 3
        assert j.site == 1

    def test_validation(self):
        with pytest.raises(InvalidRequestError):
            job(0, cpus=0)
        with pytest.raises(InvalidRequestError):
            job(0, cpu_time=0.0)


class TestJobSimulator:
    def test_accounting_single_job(self, platform):
        sim = JobSimulator(platform, [job(0, volume=1000.0, max_rate=50.0, cpus=4, cpu_time=200.0)])
        result = sim.run(GreedyFlexible(policy=FractionOfMaxPolicy(1.0)))
        outcome = result.outcomes[0]
        # transfer at 50 MB/s -> staged at 20; finish 220; held 4 * 220
        assert outcome.staged_at == pytest.approx(20.0)
        assert outcome.finished_at == pytest.approx(220.0)
        assert outcome.cpu_seconds_held == pytest.approx(4 * 220.0)
        assert result.completed_rate == 1.0
        assert result.mean_completion_time() == pytest.approx(220.0)

    def test_min_bw_holds_cpus_longer(self, platform):
        jobs = [job(0)]
        slow = JobSimulator(platform, jobs).run(GreedyFlexible(policy=MinRatePolicy()))
        fast = JobSimulator(platform, jobs).run(GreedyFlexible(policy=FractionOfMaxPolicy(1.0)))
        assert slow.outcomes[0].cpu_seconds_held > fast.outcomes[0].cpu_seconds_held

    def test_rejected_job_holds_nothing(self, platform):
        jobs = [
            job(0, max_rate=100.0),
            job(1, max_rate=100.0, t0=1.0, window=10.5),  # port busy, deadline tight
        ]
        result = JobSimulator(platform, jobs).run(GreedyFlexible(policy=FractionOfMaxPolicy(1.0)))
        assert not result.outcomes[1].admitted
        assert result.outcomes[1].cpu_seconds_held == 0.0
        assert result.completed_rate == pytest.approx(0.5)

    def test_duplicate_rids_rejected(self, platform):
        with pytest.raises(ConfigurationError):
            JobSimulator(platform, [job(0), job(0)])

    def test_tuning_tradeoff_shape(self):
        """§2.3: larger f lowers CPU·s per job but also the completed rate."""
        p = Platform.paper_platform()
        jobs = random_jobs(p, 250, np.random.default_rng(1), mean_interarrival=5.0)
        sim = JobSimulator(p, jobs)
        min_bw = sim.run(GreedyFlexible(policy=MinRatePolicy()))
        full = sim.run(GreedyFlexible(policy=FractionOfMaxPolicy(1.0)))
        assert full.cpu_seconds_per_job() < min_bw.cpu_seconds_per_job()
        assert full.completed_rate < min_bw.completed_rate
        assert full.mean_completion_time() < min_bw.mean_completion_time()


class TestRandomJobs:
    def test_shapes_and_bounds(self):
        p = Platform.paper_platform()
        jobs = random_jobs(
            p, 50, np.random.default_rng(2), cpu_time_range=(100.0, 1000.0), max_cpus=8
        )
        assert len(jobs) == 50
        for j in jobs:
            assert 1 <= j.cpus <= 8
            assert 100.0 <= j.cpu_time <= 1000.0

    def test_validation(self):
        p = Platform.paper_platform()
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            random_jobs(p, 5, rng, max_cpus=0)
        with pytest.raises(ConfigurationError):
            random_jobs(p, 5, rng, cpu_time_range=(10.0, 5.0))
