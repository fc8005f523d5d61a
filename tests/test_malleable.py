"""End-to-end tests for the malleable-transfer plane.

Stepwise :class:`~repro.core.profile.RateProfile` requests and the
shaped-fallback / reshape-before-displace recovery verbs, exercised at
every layer above the booking kernel: the default (one-shard,
unbatched) gateway, the sharded gateway (including 2PC cross-shard
placement and journal replay), the chaos matrix, and the serve HTTP API.  The kernel-level
properties (decision identity, reserve/release restoration, shaping
math) live in ``tests/test_profile.py``; this module checks that the
layers *above* thread profiles through without corrupting their
constant-rate decision traces.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.control import PortFault, run_chaos_matrix, run_fault_drill
from repro.core.booking import RejectReason
from repro.core.errors import InvalidRequestError
from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import Gateway, Journal, check_gateway
from repro.loadgen import ServiceClient
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock


def run(coro):
    return asyncio.run(coro)


def small_platform(cap: float = 100.0) -> Platform:
    return Platform.uniform(2, 2, cap)


def submit_hotspot(svc_or_gw, *, now: float = 20.0) -> None:
    """Book 90 MB/s over [20, 60) on the 0→1 pair (free: 10 MB/s)."""
    svc_or_gw.submit(
        ingress=0, egress=1, volume=3600.0, deadline=60.0, now=now, max_rate=90.0
    )


def submit_probe(svc_or_gw, *, now: float = 20.0):
    """A request no constant rate can serve around the hotspot.

    Volume 700 MB by deadline 70 at max_rate 40: the latest constant
    start is 52.5, inside the hotspot where only 10 MB/s is free, and
    any feasible constant rate (>= 14 MB/s) exceeds that headroom.  A
    stepwise shape fits: 10 MB/s through the hotspot, 40 MB/s after.
    """
    return svc_or_gw.submit(
        ingress=0, egress=1, volume=700.0, deadline=70.0, now=now, max_rate=40.0
    )


# ----------------------------------------------------------------------
# The default gateway (one shard, batch size 1)
# ----------------------------------------------------------------------
class TestServiceMalleable:
    def test_explicit_profile_granted_as_given(self):
        svc = Gateway(small_platform(), malleable=True)
        res = svc.submit(
            ingress=0,
            egress=1,
            volume=300.0,
            deadline=100.0,
            now=0.0,
            profile=[[0.0, 10.0, 20.0], [20.0, 30.0, 10.0]],
        )
        assert res.confirmed
        alloc = res.allocation
        assert alloc is not None and alloc.profile is not None
        assert alloc.profile.to_list() == [[0.0, 10.0, 20.0], [20.0, 30.0, 10.0]]
        assert alloc.sigma == 0.0 and alloc.tau == 30.0

    def test_profile_volume_mismatch_is_malformed_not_rejected(self):
        svc = Gateway(small_platform(), malleable=True)
        with pytest.raises(InvalidRequestError):
            svc.submit(
                ingress=0,
                egress=1,
                volume=999.0,
                deadline=100.0,
                now=0.0,
                profile=[[0.0, 10.0, 20.0]],
            )

    def test_profile_longer_than_window_rejects_profile_infeasible(self):
        svc = Gateway(small_platform(), malleable=True)
        res = svc.submit(
            ingress=0,
            egress=1,
            volume=500.0,
            deadline=30.0,
            now=0.0,
            profile=[[0.0, 50.0, 10.0]],
        )
        assert not res.confirmed
        assert res.reject_reason == RejectReason.PROFILE_INFEASIBLE

    def test_shaped_fallback_rescues_hotspot_request(self):
        rigid = Gateway(small_platform(), malleable=False)
        submit_hotspot(rigid)
        assert not submit_probe(rigid).confirmed

        malleable = Gateway(small_platform(), malleable=True)
        submit_hotspot(malleable)
        res = submit_probe(malleable)
        assert res.confirmed
        profile = res.allocation.profile
        assert profile is not None and len(profile.segments) >= 2
        assert profile.conserves(700.0)
        assert profile.tau <= 70.0 + 1e-9
        assert profile.peak_rate <= 40.0 + 1e-9

    def test_reshape_conserves_volume(self):
        svc = Gateway(small_platform(), malleable=True)
        res = svc.submit(
            ingress=0, egress=1, volume=2000.0, deadline=100.0, now=0.0, max_rate=50.0
        )
        assert res.confirmed and res.allocation.bw == pytest.approx(20.0)
        assert svc.reshape(res.rid, now=10.0)
        profile = res.allocation.profile
        assert profile is not None
        assert profile.conserves(2000.0)
        assert profile.peak_rate <= 50.0 + 1e-9
        assert svc.max_overcommit() <= 1e-9

    def test_degrade_reshapes_before_displacing(self):
        svc = Gateway(small_platform(), malleable=True)
        res = svc.submit(
            ingress=0, egress=1, volume=2000.0, deadline=100.0, now=0.0, max_rate=50.0
        )
        assert res.confirmed
        displaced = svc.degrade(
            side="ingress", port=0, amount=95.0, start=30.0, end=60.0, now=10.0
        )
        assert displaced == []
        assert svc.stats.reshaped >= 1
        assert svc.stats.displaced == 0
        assert res.displaced_at is None
        profile = res.allocation.profile
        assert profile is not None and profile.conserves(2000.0)
        # The reshaped tail respects the degraded headroom (5 MB/s free).
        for t0, t1, rate in profile.segments:
            if t0 < 60.0 and t1 > 30.0 and t0 >= 10.0:
                assert rate <= 5.0 + 1e-9
        assert svc.max_overcommit() <= 1e-9

    def test_degrade_without_malleable_displaces(self):
        svc = Gateway(small_platform(), malleable=False)
        res = svc.submit(
            ingress=0, egress=1, volume=2000.0, deadline=100.0, now=0.0, max_rate=50.0
        )
        displaced = svc.degrade(
            side="ingress", port=0, amount=95.0, start=30.0, end=60.0, now=10.0
        )
        assert [r.rid for r in displaced] == [res.rid]
        assert svc.stats.reshaped == 0

    def test_journal_replay_converges_with_profiles(self):
        journal = Journal()
        svc = Gateway(small_platform(), malleable=True, journal=journal)
        submit_hotspot(svc)
        shaped = submit_probe(svc)
        assert shaped.confirmed
        explicit = svc.submit(
            ingress=1,
            egress=0,
            volume=150.0,
            deadline=100.0,
            now=25.0,
            profile=[[30.0, 40.0, 10.0], [50.0, 60.0, 5.0]],
        )
        assert explicit.confirmed
        svc.degrade(side="egress", port=1, amount=95.0, start=62.0, end=68.0, now=30.0)
        svc.reshape(explicit.rid, now=35.0)
        replayed = Gateway.replay(journal)
        assert replayed.snapshot() == svc.snapshot()

    def test_constant_journal_stays_profile_free(self):
        journal = Journal()
        svc = Gateway(small_platform(), malleable=False, journal=journal)
        res = svc.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        assert res.confirmed
        assert "malleable" not in journal.header
        assert all("profile" not in entry.args for entry in journal.entries)


# ----------------------------------------------------------------------
# Sharded gateway
# ----------------------------------------------------------------------
class TestGatewayMalleable:
    def test_explicit_profile_cross_shard_two_phase(self):
        journal = Journal()
        gw = Gateway(
            Platform.uniform(4, 4, 100.0),
            num_shards=2,
            batch_size=1,
            malleable=True,
            journal=journal,
        )
        ticket = gw.submit(
            ingress=0,
            egress=3,
            volume=300.0,
            deadline=100.0,
            now=0.0,
            profile=[[0.0, 10.0, 20.0], [20.0, 30.0, 10.0]],
        )
        assert ticket.decided and ticket.confirmed
        alloc = ticket.allocation
        assert alloc.profile is not None
        assert alloc.profile.to_list() == [[0.0, 10.0, 20.0], [20.0, 30.0, 10.0]]
        assert gw.stats.cross_shard >= 1
        report = check_gateway(gw, journal=journal, now=gw.now)
        assert report.ok, report.violations

    def test_profile_volume_mismatch_raises_before_rid_burn(self):
        gw = Gateway(Platform.uniform(4, 4, 100.0), num_shards=2, batch_size=1)
        with pytest.raises(InvalidRequestError):
            gw.submit(
                ingress=0,
                egress=1,
                volume=5.0,
                deadline=100.0,
                now=0.0,
                profile=[[0.0, 10.0, 20.0]],
            )
        ticket = gw.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=0.0)
        assert ticket.rid == 0  # the failed submit consumed nothing

    def test_shaped_fallback_matches_service_semantics(self):
        rigid = Gateway(small_platform(), num_shards=1, batch_size=1, malleable=False)
        submit_hotspot(rigid)
        assert not submit_probe(rigid).confirmed

        gw = Gateway(small_platform(), num_shards=1, batch_size=1, malleable=True)
        submit_hotspot(gw)
        ticket = submit_probe(gw)
        assert ticket.confirmed
        profile = ticket.allocation.profile
        assert profile is not None and len(profile.segments) >= 2
        assert profile.conserves(700.0)

    def test_degrade_reshapes_and_replay_converges(self):
        journal = Journal()
        gw = Gateway(
            small_platform(),
            num_shards=1,
            batch_size=1,
            malleable=True,
            journal=journal,
        )
        ticket = gw.submit(
            ingress=0, egress=1, volume=2000.0, deadline=100.0, now=0.0, max_rate=50.0
        )
        assert ticket.confirmed
        displaced = gw.degrade(
            side="ingress", port=0, amount=95.0, start=30.0, end=60.0, now=10.0
        )
        assert displaced == []
        assert gw.stats.reshaped >= 1 and gw.stats.displaced == 0
        report = check_gateway(gw, journal=journal, now=gw.now)
        assert report.ok, report.violations

    def test_constant_gateway_journal_stays_profile_free(self):
        journal = Journal()
        gw = Gateway(small_platform(), num_shards=1, batch_size=1, journal=journal)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        assert "malleable" not in journal.header
        assert all("profile" not in entry.args for entry in journal.entries)


# ----------------------------------------------------------------------
# Chaos matrix (satellite: reshape never overcommits under chaos)
# ----------------------------------------------------------------------
def chaotic_workload(seed, n=24, ports=8, horizon=400.0):
    rng = random.Random(seed)
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        volume = rng.uniform(0.2, 0.8) * rate * duration
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(ports),
                egress=rng.randrange(ports),
                volume=volume,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    return requests


def planned_faults(seed):
    rng = random.Random(seed ^ 0x5EED)
    return [
        PortFault(
            side=rng.choice(("ingress", "egress")),
            port=rng.randrange(8),
            amount=900.0,
            start=rng.uniform(50.0, 150.0),
            end=rng.uniform(200.0, 350.0),
        )
        for _ in range(3)
    ]


class TestChaosReshape:
    def test_drill_with_faults_stays_invariant_clean(self):
        gw = Gateway(
            Platform.uniform(8, 8, 1000.0),
            num_shards=2,
            batch_size=2,
            malleable=True,
            journal=Journal(),
        )
        run_fault_drill(
            gw, chaotic_workload(3, n=40, horizon=300.0), faults=planned_faults(3), seed=3
        )
        audit = check_gateway(gw, journal=gw.journal, now=gw.now)
        assert audit.ok, audit.violations

    def test_matrix_reshape_never_overcommits(self):
        report = run_chaos_matrix(
            Platform.uniform(8, 8, 1000.0),
            lambda seed: chaotic_workload(seed, n=20),
            seeds=[7, 11],
            scenarios=("clean", "lossy"),
            num_shards=2,
            batch_size=2,
            malleable=True,
            make_faults=planned_faults,
            horizon=600.0,
        )
        assert report.ok, report.failures if hasattr(report, "failures") else report
        assert all("reshaped" in cell and "displaced" in cell for cell in report.cells)


# ----------------------------------------------------------------------
# Serve HTTP API
# ----------------------------------------------------------------------
def make_app(**overrides) -> ServeApp:
    settings = dict(
        platform=Platform.uniform(2, 2, 100.0),
        num_shards=1,
        batch_size=1,
        slo_rules=(),
        malleable=True,
    )
    settings.update(overrides)
    return ServeApp(ServeConfig(**settings), clock=LogicalClock())


async def serving(app: ServeApp):
    host, port = await app.start()
    client = ServiceClient(host, port)
    await client.connect()
    return client


class TestServeProfile:
    def test_profile_submit_and_status_echo(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                resp = await client.request(
                    "POST",
                    "/v1/reservations",
                    payload={
                        "ingress": 0,
                        "egress": 1,
                        "volume": 300.0,
                        "deadline": 100.0,
                        "at": 0.0,
                        "profile": [[0.0, 10.0, 20.0], [20.0, 30.0, 10.0]],
                    },
                )
                assert resp.status == 201
                decision = resp.json()
                assert decision["outcome"] == "accepted"
                assert decision["allocation"]["profile"] == [
                    [0.0, 10.0, 20.0],
                    [20.0, 30.0, 10.0],
                ]
                rid = decision["rid"]
                status = await client.request("GET", f"/v1/reservations/{rid}")
                assert status.status == 200
                assert status.json()["allocation"]["profile"] == [
                    [0.0, 10.0, 20.0],
                    [20.0, 30.0, 10.0],
                ]
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_malformed_profile_is_400(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                for bad in ([[10.0, 0.0, 5.0]], [["a", 1.0, 2.0]], []):
                    resp = await client.request(
                        "POST",
                        "/v1/reservations",
                        payload={
                            "ingress": 0,
                            "egress": 1,
                            "volume": 50.0,
                            "deadline": 100.0,
                            "at": 0.0,
                            "profile": bad,
                        },
                    )
                    assert resp.status == 400
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_profile_volume_mismatch_is_400(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                resp = await client.request(
                    "POST",
                    "/v1/reservations",
                    payload={
                        "ingress": 0,
                        "egress": 1,
                        "volume": 999.0,
                        "deadline": 100.0,
                        "at": 0.0,
                        "profile": [[0.0, 10.0, 20.0]],
                    },
                )
                assert resp.status == 400
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_constant_submit_has_no_profile_key(self):
        async def main():
            app = make_app(malleable=False)
            client = await serving(app)
            try:
                resp = await client.request(
                    "POST",
                    "/v1/reservations",
                    payload={
                        "ingress": 0,
                        "egress": 1,
                        "volume": 50.0,
                        "deadline": 100.0,
                        "at": 0.0,
                    },
                )
                assert resp.status == 201
                assert "profile" not in resp.json()["allocation"]
            finally:
                await client.close()
                await app.drain()

        run(main())
