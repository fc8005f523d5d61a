"""Benchmarks: the default gateway as the reservation service, and striped staging."""

import numpy as np

from repro.control.striped import book_striped
from repro.core import Platform, PortLedger
from repro.gateway import Gateway
from repro.schedulers import MinRatePolicy


def test_service_throughput(benchmark):
    """Sustained submit/cancel traffic through the service API."""
    rng = np.random.default_rng(0)
    n = 400
    volumes = rng.uniform(1e4, 3e5, n)
    pairs = rng.integers(0, 10, size=(n, 2))

    def run():
        service = Gateway(Platform.paper_platform(), policy=MinRatePolicy())
        now = 0.0
        confirmed = []
        for k in range(n):
            now += 1.0
            r = service.submit(
                ingress=int(pairs[k, 0]),
                egress=int(pairs[k, 1]),
                volume=float(volumes[k]),
                deadline=now + 3600.0,
                now=now,
            )
            if r.confirmed:
                confirmed.append(r.rid)
            if k % 7 == 0 and confirmed:
                service.cancel(confirmed.pop(0), now=now)
        return service

    service = benchmark(run)
    assert service.accept_rate() > 0.5


def test_striped_planning(benchmark):
    """Striped bookings against a busy ledger."""
    platform = Platform.paper_platform()

    def run():
        ledger = PortLedger(platform)
        rng = np.random.default_rng(1)
        booked = 0
        for k in range(60):
            t0 = float(k * 20)
            booking = book_striped(
                ledger,
                platform,
                sources=list(rng.choice(10, size=3, replace=False)),
                egress=int(rng.integers(10)),
                volume=float(rng.uniform(5e4, 5e5)),
                t_start=t0,
                t_end=t0 + 3600.0,
                max_stream_rate=500.0,
            )
            booked += booking is not None
        assert ledger.max_overcommit() <= 1e-6
        return booked

    booked = benchmark(run)
    assert booked >= 20
