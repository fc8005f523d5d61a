"""The fault drill on the gateway, and decisions pinned from the retired service.

:func:`repro.control.run_fault_drill` takes a gateway the caller built and
drives arrivals, sampled aborts, port faults, rebooking and broker crashes
through it.

- ``PINS``: three drills of :func:`bench_workload` on a 6 × 6 platform (two
  abort rates, and a journaled run that must replay) and
  ``examples/fault_tolerance.py``, as SHA-256 of ``snapshot()`` (JSON,
  sorted keys), of the journal text and of the abort list; none of them
  may leave a port over capacity.
- ``DECISION_PINS``: SHA-256 of the reservation rows
  (:func:`~repro.gateway.lifecycle.reservation_rows`) of runs recorded with
  the single-ledger ``ReservationService`` before it became the default
  gateway — the drill it and the gateway once ran side by side (8 seeds),
  the mixed op stream the single-shard equivalence suite drove (4 seeds),
  and the bench and example drills above without a backlog.  The default
  gateway must decide every one of them the same.
"""

import hashlib
import json
import random
from functools import partial

import numpy as np
import pytest

from repro.control import DrillReport, PortFault, run_fault_drill
from repro.core import Platform, Request
from repro.gateway import Gateway, Journal
from repro.gateway.lifecycle import reservation_rows
from repro.schedulers import BackoffSchedule
from repro.units import GB, HOUR


def bench_workload(seed, platform, n, horizon=2000.0):
    """``n`` requests arriving over ``horizon`` seconds, each with a 600 to
    2,400 s window and a 500 MB/s rate cap."""
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
    """``(name, gateway, report)`` for every pinned drill."""
    platform = Platform.uniform(6, 6, 1000.0)
    requests = bench_workload(0, platform, 300)
    for rate in (0.1, 0.3):
        service = Gateway(platform)
        report = run_fault_drill(
            service,
            requests,
            abort_rate=rate,
            faults=BENCH_FAULTS,
            rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
            seed=1,
        )
        yield f"throughput-{rate}", service, report
    service = Gateway(platform, journal=Journal())
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
    service = Gateway(paper, journal=Journal())
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
        "06426a09fa890984efb051bcbc3ab5c7c8b062964f53eb7c5f1ce0f11b2f1844",
        None,
        31,
        "296be690bed9ae6a642cd24293dab8e9b7dbcb85b13e8b331cb6d5a570f0d456",
    ),
    "throughput-0.3": (
        "337cedbbc02d0764ec4ca1b9d2075461aeae245255c4003cbab60685b528b528",
        None,
        87,
        "bba04f695fba8d6f21ec469e5396e21175c4259baac32500816aafac57baa58f",
    ),
    "replay": (
        "0eb6ec0f5dae49757f1a126c9bcbf52f57f7a87732324aadef36ac3aec431343",
        "49065106fb662b2ced4219a82c34fd9bac16513d2cd90550d602bab45ebac786",
        57,
        "1be4d906156c7e390b7132fad2796830bdbe56c46ec0bdae3a44c92b0e94b5de",
    ),
    "example": (
        "0aa248b5d375d9b151c25ff779dcc1d65eb035f9ca56c23c7c33f2da02595671",
        "9537e70875b0888f85c489a622637acd26a906e44295c659a2c0b180b2726c72",
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
            assert Gateway.replay(journal).snapshot() == service.snapshot()
        assert service.max_overcommit() <= 1e-6, name
    assert seen == PINS


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


# ----------------------------------------------------------------------
# Decisions pinned from the retired single-ledger service
# ----------------------------------------------------------------------
def op_stream(seed, n=80, horizon=400.0, ports=5, cap=1000.0):
    """A mixed op stream, ``(verb, keywords)`` in time order, that saturates
    a 5 x 5 platform part-way through: accepts, capacity and max-rate
    rejections, cancels, aborts and degradations."""
    rng = np.random.default_rng(seed)
    ops = []
    t = 0.0
    live_guess = []
    for i in range(n):
        t += float(rng.exponential(horizon / n))
        kind = rng.random()
        if kind < 0.70 or not live_guess:
            window = float(rng.uniform(40.0, 500.0))
            volume = min(float(rng.uniform(2_000.0, 60_000.0)), 0.9 * cap * window)
            ops.append(
                (
                    "submit",
                    {
                        "ingress": int(rng.integers(ports)),
                        "egress": int(rng.integers(ports)),
                        "volume": volume,
                        "deadline": t + window,
                        "now": t,
                        "max_rate": float(rng.choice([cap, volume / window * 1.5])),
                    },
                )
            )
            live_guess.append(len([o for o in ops if o[0] == "submit"]) - 1)
        elif kind < 0.80:
            ops.append(("cancel", {"rid": int(rng.choice(live_guess)), "now": t}))
        elif kind < 0.90:
            ops.append(("abort", {"rid": int(rng.choice(live_guess)), "now": t}))
        else:
            ops.append(
                (
                    "degrade",
                    {
                        "side": str(rng.choice(["ingress", "egress"])),
                        "port": int(rng.integers(ports)),
                        "amount": float(rng.uniform(200.0, 900.0)),
                        "start": t,
                        "end": t + float(rng.uniform(30.0, 200.0)),
                        "now": t,
                    },
                )
            )
    return ops


def run_op_stream(seed):
    plane = Gateway(Platform.uniform(5, 5, 1000.0))
    for verb, args in op_stream(seed):
        getattr(plane, verb)(**args)
    return plane


def run_drill(platform, requests, **kwargs):
    plane = Gateway(platform)
    run_fault_drill(plane, requests, **kwargs)
    return plane


def run_cross_plane(seed):
    """The experiment the retired service and the gateway once ran side by side."""
    platform = Platform.uniform(6, 6, 1000.0)
    faults = [
        PortFault.outage("egress", seed % 6, 1000.0, start=500.0, end=900.0),
        PortFault(side="ingress", port=(seed + 1) % 6, amount=500.0, start=1200.0, end=1600.0),
    ]
    return run_drill(
        platform,
        bench_workload(seed, platform, 300),
        abort_rate=0.2,
        faults=faults,
        rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
        seed=seed,
    )


def run_bench_throughput(rate):
    platform = Platform.uniform(6, 6, 1000.0)
    return run_drill(
        platform,
        bench_workload(0, platform, 300),
        abort_rate=rate,
        faults=BENCH_FAULTS,
        rebook=BackoffSchedule(base=30.0, multiplier=2.0, jitter=0.25),
        seed=1,
    )


def run_bench_replay():
    platform = Platform.uniform(6, 6, 1000.0)
    return run_drill(
        platform,
        bench_workload(2, platform, 300),
        abort_rate=0.2,
        faults=[PortFault.outage("egress", 2, 1000.0, start=400.0, end=800.0)],
        rebook=BackoffSchedule(base=30.0, multiplier=2.0),
        seed=3,
    )


def run_example():
    paper = Platform.paper_platform()
    return run_drill(
        paper,
        example_workload(paper),
        abort_rate=0.05,
        faults=[PortFault.outage("egress", 4, paper.bout(4), start=6 * HOUR, end=8 * HOUR)],
        rebook=BackoffSchedule(base=300.0, multiplier=2.0, jitter=0.25),
        seed=7,
    )


DECISION_RUNS = {
    **{f"cross-plane-{seed}": partial(run_cross_plane, seed) for seed in range(8)},
    **{f"op-stream-{seed}": partial(run_op_stream, seed) for seed in (101, 202, 303, 404)},
    "bench-throughput-0.1": partial(run_bench_throughput, 0.1),
    "bench-throughput-0.3": partial(run_bench_throughput, 0.3),
    "bench-replay": run_bench_replay,
    "example": run_example,
}


DECISION_PINS = {
    "cross-plane-0": "5bc37a46b49bf718e4f18859143e690faeebade97123ee75821bbf2580c95946",
    "cross-plane-1": "7d4c473064674de43d460bed69165e13ea517c0825ec4e68e9d1065c6ff1cd5a",
    "cross-plane-2": "cb1b97f03e16ce84a61e800eaa43b9d01149db933120fd19fa1eb17f48c95f43",
    "cross-plane-3": "7c2883b7f400519a0f98f2e6d6773aa65584696f83ffc5272510b3c0b7bec438",
    "cross-plane-4": "c59d4f85adb87bfa563558a0335fbbf1c9e16a87302da33a5faf7a7021f6c64d",
    "cross-plane-5": "9e3faf779d400fcbc0717c9c897f5fe0424565569213723f6c0b4175ec181b43",
    "cross-plane-6": "4313b84b0d511b627e9899eaaddd358248e626a35bf17b44f991827c7644e761",
    "cross-plane-7": "f688d3907f509ba358ad74737b7c17b24e81d419bf8f9c623ec1fc78af8c14f4",
    "op-stream-101": "8151d860b3c18c76f41bd61346f63867e8fed869ec92b310ce04addf7de50e52",
    "op-stream-202": "e1906fd73d1d46355fcf753a38bc76863b8ee75a050ea2ad9dfcdd58ad750e4b",
    "op-stream-303": "45e36e85a893ce39df909bb91a65b1d68ab73a3ba130f01399cf11db62b2bcb4",
    "op-stream-404": "1ad72a4c40f04beed7cf778556d5dab306d07fbcb3c491e3db0c537debde89d2",
    "bench-throughput-0.1": "0d546e127b0076720aaedb1898918c0483a641769c0f9bcba61b25807c66b7b4",
    "bench-throughput-0.3": "919ad0485747d45a9b1aa2c937ca765b8ce068c1d3ff4d1adf09569644b77f27",
    "bench-replay": "f0deb3cf693d3ef3e39b6491072877a134959535d3f948f82e9f284217d198c7",
    "example": "bd14fc7b15cf487cce3234f35e7f216d5bcfef2619e6026f818cd64cc9ffbed0",
}


@pytest.mark.parametrize("name", sorted(DECISION_PINS))
def test_decisions_match_the_retired_service(name):
    rows = reservation_rows(DECISION_RUNS[name]().reservations())
    assert any(r["allocation"] for r in rows) and any(r["reject_reason"] for r in rows)
    assert sha(json.dumps(rows, sort_keys=True)) == DECISION_PINS[name]
