"""One fault drill, either admission plane.

:func:`repro.control.run_fault_drill` takes a plane the caller built — a
:class:`~repro.control.ReservationService` or a
:class:`~repro.gateway.Gateway` — and drives arrivals, sampled aborts,
port faults, rebooking and (gateway only) broker crashes through it.

- The pins were recorded with the service drill as it stood before the
  two drills were merged (``run_fault_drill(platform, ..., backlog_limit=…,
  journal=…)``), for the fault benchmark's runs
  (``benchmarks/bench_faults.py``) and ``examples/fault_tolerance.py``:
  SHA-256 of ``snapshot()`` (JSON, sorted keys), of the journal text and
  of the abort list.
- The cross-plane test runs one experiment through both planes; an
  unbatched, single-shard gateway decides exactly what the service does.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.control import (
    DrillReport,
    Journal,
    PortFault,
    ReservationService,
    run_fault_drill,
)
from repro.core import Platform, Request
from repro.gateway import Gateway
from repro.schedulers import BackoffSchedule
from repro.units import GB, HOUR


def bench_workload(seed, platform, n, horizon=2000.0):
    """``benchmarks/bench_faults.py``'s ``_workload``."""
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


def example_workload(platform):
    """``examples/fault_tolerance.py``'s day of traffic."""
    rng = random.Random(42)
    requests = []
    for rid in range(200):
        t0 = rng.uniform(0.0, 20 * HOUR)
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(platform.num_ingress),
                egress=rng.randrange(platform.num_egress),
                volume=rng.uniform(100 * GB, 3000 * GB),
                t_start=t0,
                t_end=t0 + rng.uniform(2 * HOUR, 8 * HOUR),
                max_rate=500.0,
            )
        )
    return requests


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


BENCH_FAULTS = [
    PortFault.outage("egress", 0, 1000.0, start=500.0, end=900.0),
    PortFault(side="ingress", port=1, amount=500.0, start=1200.0, end=1600.0),
]


def pinned_runs():
    """``(name, service, report)`` for every pinned drill."""
    platform = Platform.uniform(6, 6, 1000.0)
    requests = bench_workload(0, platform, 300)
    for rate in (0.1, 0.3):
        service = ReservationService(platform, backlog_limit=16)
        report = run_fault_drill(
            service,
            requests,
            abort_rate=rate,
            faults=BENCH_FAULTS,
            rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
            seed=1,
        )
        yield f"throughput-{rate}", service, report
    service = ReservationService(platform, backlog_limit=16, journal=Journal())
    report = run_fault_drill(
        service,
        bench_workload(2, platform, 300),
        abort_rate=0.2,
        faults=[PortFault.outage("egress", 2, 1000.0, start=400.0, end=800.0)],
        rebook=BackoffSchedule(base=30.0, multiplier=2.0),
        seed=3,
    )
    yield "replay", service, report
    paper = Platform.paper_platform()
    service = ReservationService(paper, backlog_limit=32, journal=Journal())
    report = run_fault_drill(
        service,
        example_workload(paper),
        abort_rate=0.05,
        faults=[PortFault.outage("egress", 4, paper.bout(4), start=6 * HOUR, end=8 * HOUR)],
        rebook=BackoffSchedule(base=300.0, multiplier=2.0, jitter=0.25),
        seed=7,
    )
    yield "example", service, report


#: name -> (snapshot SHA, journal SHA or None, abort count, abort-list SHA)
PINS = {
    "throughput-0.1": (
        "2b85321a3bf15391753bffbeb7e2a2b4b359aed6133b5df62161908c10eff52d",
        None,
        31,
        "296be690bed9ae6a642cd24293dab8e9b7dbcb85b13e8b331cb6d5a570f0d456",
    ),
    "throughput-0.3": (
        "2f1d67d2fcde1a87bf82372de838bd2b5c04c8ba72e056e665217b0f65b84b2c",
        None,
        87,
        "bba04f695fba8d6f21ec469e5396e21175c4259baac32500816aafac57baa58f",
    ),
    "replay": (
        "08c7292815977380665409a0357d793067a708dad11531326ca9cf62a7e0a02b",
        "bded8417d4179d194fdcf9e6fffe1f29493141084e0b8a74d20bf99021cfd5ac",
        57,
        "1be4d906156c7e390b7132fad2796830bdbe56c46ec0bdae3a44c92b0e94b5de",
    ),
    "example": (
        "62bb4d1d0b114e348f38e17b5c0ba1da0523cd31fbfbae9241a6d2235edc2a68",
        "af5047c5c0aea6c7f6a1cacf3d10fca785d04e48631098161d8c04c2be124b8e",
        9,
        "83f5f34097d7822e9b20711d758bd5956bfecc96e18043da7119ce303f88ad7b",
    ),
}


def test_service_drills_match_their_pins():
    seen = {}
    for name, service, report in pinned_runs():
        assert isinstance(report, DrillReport) and report.plane is service
        journal = service.journal
        aborts = [(a.rid, a.at) for a in report.aborts]
        seen[name] = (
            sha(json.dumps(service.snapshot(), sort_keys=True)),
            None if journal is None else sha(journal.to_jsonl()),
            len(aborts),
            sha(json.dumps(aborts)),
        )
        if journal is not None:
            assert ReservationService.replay(journal).snapshot() == service.snapshot()
    assert seen == PINS


def outcome(plane):
    """What a plane decided, row per rid, plus when each reservation ended."""
    return [
        (
            r.rid,
            r.origin,
            r.allocation,
            r.reject_reason,
            r.aborted_at,
            r.displaced_at,
            r.terminated_at,
        )
        for r in plane.reservations()
    ]


@pytest.mark.parametrize("seed", range(8))
def test_one_experiment_decides_the_same_on_both_planes(seed):
    platform = Platform.uniform(6, 6, 1000.0)
    requests = bench_workload(seed, platform, 300)
    faults = [
        PortFault.outage("egress", seed % 6, 1000.0, start=500.0, end=900.0),
        PortFault(side="ingress", port=(seed + 1) % 6, amount=500.0, start=1200.0, end=1600.0),
    ]
    reports = []
    for plane in (
        ReservationService(platform, backlog_limit=0),
        Gateway(platform, num_shards=1, batch_size=1, backlog_limit=0),
    ):
        reports.append(
            run_fault_drill(
                plane,
                requests,
                abort_rate=0.2,
                faults=faults,
                rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
                seed=seed,
            )
        )
    service, gateway = reports
    assert outcome(service.plane) == outcome(gateway.plane)
    assert service.aborts == gateway.aborts
    # the experiment exercised every path it compares
    rows = outcome(service.plane)
    assert service.aborts and any(row[1] is not None and row[2] for row in rows)
    assert any(row[5] is not None for row in rows) and any(row[3] for row in rows)


def test_a_batched_gateway_retries_a_rejected_rebooking_once_decided():
    """A rebooking a batched gateway has not decided yet is not a rejection:
    the next attempt waits for the flush, so no residual is booked twice."""
    platform = Platform.uniform(6, 6, 1000.0)
    gateway = Gateway(platform, num_shards=2, batch_size=4, journal=Journal())
    run_fault_drill(
        gateway,
        bench_workload(0, platform, 300),
        abort_rate=0.2,
        faults=BENCH_FAULTS,
        rebook=BackoffSchedule(base=30.0, multiplier=2.0),
        seed=1,
    )
    rebooked = {}
    for r in gateway.reservations():
        if r.origin is not None and gateway.get(r.origin).displaced_at is not None:
            rebooked.setdefault(r.origin, []).append(r)
    assert rebooked, "the outage displaced something and its residual was resubmitted"
    for attempts in rebooked.values():
        assert sum(1 for r in attempts if r.confirmed) <= 1
        # every attempt but the last was decided a rejection before the next
        assert all(not r.confirmed for r in attempts[:-1])
    assert gateway.max_overcommit() <= 1e-6
    assert Gateway.replay(gateway.journal).snapshot() == gateway.snapshot()
