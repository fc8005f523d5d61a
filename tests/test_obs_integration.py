"""End-to-end acceptance tests for the observability layer.

The contract: a seeded run of the default gateway produces an artifact
from which ``grid-obs summary`` reports accept count and reject counts by
RejectReason consistent with :func:`repro.metrics.collector.evaluate` on
the same run — and two identical seeded runs produce byte-identical
telemetry.
"""

import json

import numpy as np
import pytest

from repro.core import Platform, ProblemInstance, RejectReason
from repro.gateway import Gateway
from repro.metrics.collector import evaluate
from repro.obs import RunTelemetry, Telemetry, summarize, use_telemetry, validate_chrome_trace
from repro.obs.cli import main

SEED = 2006
NUM_SUBMITS = 80


def _run_workload(seed: int = SEED) -> tuple[Gateway, RunTelemetry]:
    """A seeded submit-only run captured into an artifact."""
    platform = Platform.paper_platform()
    rng = np.random.default_rng(seed)
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        service = Gateway(platform)
        for k in range(NUM_SUBMITS):
            now = float(k * 50)
            window = float(rng.uniform(900, 6000))
            ingress = int(rng.integers(platform.num_ingress))
            egress = int(rng.integers(platform.num_egress))
            cap = platform.bottleneck(ingress, egress)
            service.submit(
                ingress=ingress,
                egress=egress,
                volume=float(rng.uniform(0.3, 0.95)) * cap * window,
                deadline=now + window,
                now=now,
            )
    artifact = RunTelemetry("integration", meta={"seed": seed})
    artifact.capture("run", telemetry)
    return service, artifact


@pytest.fixture(scope="module")
def workload():
    return _run_workload()


class TestSummaryMatchesService:
    def test_accept_and_reject_counts(self, workload):
        service, artifact = workload
        summary = summarize(artifact)
        confirmed = [r for r in service.reservations() if r.confirmed]
        rejected = [r for r in service.reservations() if not r.confirmed]
        assert rejected, "workload must actually saturate the platform"
        assert summary.accepted == len(confirmed)
        assert summary.rejected == len(rejected)

    def test_reject_reasons_match_reservations(self, workload):
        service, artifact = workload
        summary = summarize(artifact)
        expected: dict[str, int] = {}
        for r in service.reservations():
            if not r.confirmed:
                assert isinstance(r.reject_reason, RejectReason)
                key = r.reject_reason.value
                expected[key] = expected.get(key, 0) + 1
        assert summary.reject_reasons == expected

    def test_matches_collector_evaluate(self, workload):
        service, artifact = workload
        summary = summarize(artifact)
        requests, result = service.surviving_schedule()
        problem = ProblemInstance(platform=service.platform, requests=requests)
        report = evaluate(problem, result)
        assert summary.accept_rate == pytest.approx(report.accept_rate)
        assert summary.accepted + summary.rejected == report.num_requests
        assert result.rejection_breakdown() == summary.reject_reasons

    def test_grid_obs_summary_cli(self, workload, tmp_path, capsys):
        service, artifact = workload
        path = artifact.save(tmp_path / "run.json")
        assert main(["summary", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        summary = summarize(artifact)
        assert data["accepted"] == summary.accepted
        assert data["reject_reasons"] == summary.reject_reasons
        assert data["accept_rate"] == pytest.approx(service.accept_rate())

    def test_chrome_export_validates(self, workload):
        _, artifact = workload
        validate_chrome_trace(artifact.chrome_trace())


class TestDeterminism:
    def test_identical_seeds_are_byte_identical(self):
        _, first = _run_workload()
        _, second = _run_workload()
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        _, first = _run_workload(seed=1)
        _, second = _run_workload(seed=2)
        assert first.to_json() != second.to_json()


class TestDecisionEvents:
    def test_every_submit_has_an_event(self, workload):
        _, artifact = workload
        (capture,) = list(artifact.captures())
        submit_events = [e for e in capture["events"] if e["name"] == "gateway.submit"]
        assert len(submit_events) == NUM_SUBMITS

    def test_rejection_events_carry_diagnostics(self, workload):
        _, artifact = workload
        (capture,) = list(artifact.captures())
        rejections = [
            e["fields"]
            for e in capture["events"]
            if e["name"] == "gateway.submit" and e["fields"]["outcome"] == "rejected"
        ]
        assert rejections
        for fields in rejections:
            assert fields["reason"] in {r.value for r in RejectReason}
            assert fields["candidates"] >= 1
        capacity_rejects = [f for f in rejections if f["reason"].endswith("-full")]
        assert capacity_rejects, "expected capacity-driven rejections in this workload"


class TestLifecycleEvents:
    """``gateway.crash`` / ``gateway.restart`` / ``gateway.degrade`` are a
    traced cell's only record of its faults: every field is pinned."""

    @staticmethod
    def crash(gw):
        # A hold placed behind the gateway's back is live at the crash.
        gw.brokers[0].prepare(
            "ingress", 0, ((0.0, 10.0, 5.0),), rid=99, expires=50.0, key=(99, "i")
        )
        assert gw.crash_broker(0, now=1.0) == 1
        return "gateway.crash", 1.0, {"shard": 0, "holds_wiped": 1}

    @staticmethod
    def restart(gw):
        gw.crash_broker(1, now=1.0)
        gw.restart_broker(1, now=2.0)
        return "gateway.restart", 2.0, {"shard": 1}

    @staticmethod
    def degrade(gw):
        ticket = gw.submit(
            ingress=0, egress=1, volume=2000.0, deadline=100.0, now=0.0, max_rate=50.0
        )
        assert ticket.confirmed
        gw.degrade(side="ingress", port=0, amount=95.0, start=30.0, end=60.0, now=10.0)
        fields = {"side": "ingress", "port": 0, "amount": 95.0, "start": 30.0, "end": 60.0}
        if gw.malleable:  # the victim's tail is re-shaped around the cut
            fields.update(displaced=[], reshaped=[ticket.rid])
        else:
            fields.update(displaced=[ticket.rid])
        return "gateway.degrade", 10.0, fields

    @pytest.mark.parametrize(
        "verb, malleable",
        [("crash", False), ("restart", False), ("degrade", False), ("degrade", True)],
    )
    def test_event_carries_every_field(self, verb, malleable):
        telemetry = Telemetry()
        gw = Gateway(
            Platform.uniform(2, 2, 100.0),
            num_shards=2,
            malleable=malleable,
            telemetry=telemetry,
        )
        name, at, fields = getattr(self, verb)(gw)
        (event,) = [e for e in telemetry.events if e.name == name]
        assert (event.time, event.fields) == (at, fields)
