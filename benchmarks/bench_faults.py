"""Benchmarks: fault injection, recovery, and journal replay."""

import numpy as np
import pytest

from repro.control import PortFault, run_fault_drill
from repro.core import Platform, Request
from repro.gateway import Gateway, Journal
from repro.schedulers import BackoffSchedule


def _workload(seed, platform, n, horizon=2000.0):
    rng = np.random.default_rng(seed)
    requests = []
    for rid in range(n):
        t0 = float(rng.uniform(0.0, horizon))
        requests.append(
            Request(
                rid=rid,
                ingress=int(rng.integers(platform.num_ingress)),
                egress=int(rng.integers(platform.num_egress)),
                volume=float(rng.uniform(5e3, 8e4)),
                t_start=t0,
                t_end=t0 + float(rng.uniform(600.0, 2400.0)),
                max_rate=500.0,
            )
        )
    return requests


@pytest.mark.parametrize("abort_rate", [0.1, 0.3])
def test_fault_drill_throughput(benchmark, abort_rate):
    """A full drill: arrivals + random aborts + an outage + rebooking."""
    platform = Platform.uniform(6, 6, 1000.0)
    requests = _workload(0, platform, 300)
    faults = [
        PortFault.outage("egress", 0, 1000.0, start=500.0, end=900.0),
        PortFault(side="ingress", port=1, amount=500.0, start=1200.0, end=1600.0),
    ]

    def run():
        report = run_fault_drill(
            Gateway(platform),
            requests,
            abort_rate=abort_rate,
            faults=faults,
            rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
            seed=1,
        )
        assert report.plane.max_overcommit() <= 1e-6
        return report

    report = benchmark(run)
    assert report.plane.stats.aborted > 0
    assert report.plane.stats.displaced > 0


def test_journal_replay(benchmark):
    """Crash recovery: rebuilding a gateway from its operation journal."""
    platform = Platform.uniform(6, 6, 1000.0)
    requests = _workload(2, platform, 300)
    journal = Journal()
    service = Gateway(platform, journal=journal)
    run_fault_drill(
        service,
        requests,
        abort_rate=0.2,
        faults=[PortFault.outage("egress", 2, 1000.0, start=400.0, end=800.0)],
        rebook=BackoffSchedule(base=30.0, multiplier=2.0),
        seed=3,
    )
    expected = service.snapshot()

    rebuilt = benchmark(Gateway.replay, journal)
    assert rebuilt.snapshot() == expected
