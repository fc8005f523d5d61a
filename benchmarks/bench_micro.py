"""Micro-benchmarks of the core substrates.

These are real pytest-benchmark timings (many rounds) of the hot paths:
timeline interval updates/queries, ledger admission checks, the max-min
solver, and end-to-end scheduler throughput.
"""

import numpy as np
import pytest

from repro.core import Platform, PortLedger, make_profile
from repro.fairness import maxmin_rates
from repro.schedulers import GreedyFlexible, WindowFlexible, cumulated_slots
from repro.workload import paper_flexible_workload, paper_rigid_workload


@pytest.fixture(scope="module")
def flexible_problem():
    return paper_flexible_workload(1.0, 500, seed=0)


@pytest.fixture(scope="module")
def rigid_problem():
    return paper_rigid_workload(4.0, 500, seed=0)


def test_timeline_add_release(benchmark):
    rng = np.random.default_rng(0)
    ops = [(float(s), float(s + d), float(b)) for s, d, b in
           zip(rng.uniform(0, 1e4, 200), rng.uniform(1, 500, 200), rng.uniform(1, 100, 200))]

    def run():
        tl = make_profile()
        for t0, t1, bw in ops:
            tl.add(t0, t1, bw)
        for t0, t1, bw in ops:
            tl.add(t0, t1, -bw)
        return tl

    tl = benchmark(run)
    assert tl.is_zero()


def test_timeline_max_usage_query(benchmark):
    tl = make_profile()
    rng = np.random.default_rng(1)
    for s, d, b in zip(rng.uniform(0, 1e4, 500), rng.uniform(1, 500, 500), rng.uniform(1, 100, 500)):
        tl.add(float(s), float(s + d), float(b))
    value = benchmark(lambda: tl.max_usage(2000.0, 8000.0))
    assert value > 0


def test_ledger_fits(benchmark):
    ledger = PortLedger(Platform.paper_platform())
    rng = np.random.default_rng(2)
    for _ in range(300):
        i, e = int(rng.integers(10)), int(rng.integers(10))
        t0 = float(rng.uniform(0, 1e4))
        bw = float(rng.uniform(1, 50))
        if ledger.fits(i, e, t0, t0 + 100, bw):
            ledger.allocate(i, e, t0, t0 + 100, bw)
    assert benchmark(lambda: ledger.fits(3, 7, 5000.0, 5100.0, 10.0)) in (True, False)


def test_maxmin_solver(benchmark):
    platform = Platform.paper_platform()
    rng = np.random.default_rng(3)
    n = 400
    ingress = rng.integers(0, 10, n)
    egress = rng.integers(0, 10, n)
    limits = rng.uniform(10, 1000, n)
    rates = benchmark(lambda: maxmin_rates(platform, ingress, egress, limits))
    assert rates.shape == (n,)


def test_greedy_throughput(benchmark, flexible_problem):
    result = benchmark(lambda: GreedyFlexible().schedule(flexible_problem))
    assert result.num_decided == flexible_problem.num_requests


def test_window_throughput(benchmark, flexible_problem):
    result = benchmark(lambda: WindowFlexible(t_step=400.0).schedule(flexible_problem))
    assert result.num_decided == flexible_problem.num_requests


def test_cumulated_slots_throughput(benchmark, rigid_problem):
    result = benchmark(lambda: cumulated_slots().schedule(rigid_problem))
    assert result.num_decided == rigid_problem.num_requests
