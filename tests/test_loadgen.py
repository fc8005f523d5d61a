"""The load harness: plans, percentile math, artifact schema, live runs.

The fleet tests drive a real in-process :class:`ServeApp` over a
listening socket — the same path the CI smoke takes, scaled down — with
a :class:`TickClock` injected so latency accounting is deterministic.
"""

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.loadgen import (
    LOADGEN_SCHEMA,
    LatencySummary,
    LoadReport,
    LoadgenConfig,
    SubmissionPlan,
    percentile,
    run_load,
)
from repro.loadgen.plan import arrival_process
from repro.obs.perfclock import TickClock, WallClock
from repro.obs.schema import SchemaError, validate
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock

PLATFORM = Platform.uniform(4, 4, 100.0)


def make_app(**overrides) -> ServeApp:
    settings = dict(
        platform=PLATFORM,
        num_shards=2,
        batch_size=4,
        slo_rules=(),
    )
    settings.update(overrides)
    return ServeApp(ServeConfig(**settings), clock=LogicalClock())


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestSubmissionPlan:
    def test_same_seed_same_bodies(self):
        a = SubmissionPlan(PLATFORM, 32, seed=5)
        b = SubmissionPlan(PLATFORM, 32, seed=5)
        assert [a.body(i) for i in range(32)] == [b.body(i) for i in range(32)]

    def test_different_seeds_differ(self):
        a = SubmissionPlan(PLATFORM, 32, seed=5)
        b = SubmissionPlan(PLATFORM, 32, seed=6)
        assert [a.body(i) for i in range(32)] != [b.body(i) for i in range(32)]

    def test_bodies_are_feasible_with_slack(self):
        """Every window exceeds the bottleneck transfer time by the floor —
        a wave flushed late never flips a plan body to infeasible."""
        floor = 600.0
        plan = SubmissionPlan(PLATFORM, 64, seed=1, deadline_floor=floor)
        for i in range(64):
            entry = plan.body(i)
            cap = PLATFORM.bottleneck(entry["ingress"], entry["egress"])
            window = entry["deadline"] - entry["at"]
            assert window >= entry["volume"] / cap + floor * 0.999

    def test_arrivals_are_sorted(self):
        plan = SubmissionPlan(PLATFORM, 64, seed=2)
        ats = [plan.body(i)["at"] for i in range(64)]
        assert ats == sorted(ats)

    def test_position_cycles_past_end(self):
        plan = SubmissionPlan(PLATFORM, 8, seed=0)
        assert plan.body(0) == plan.body(8)
        assert plan.body(3) == plan.body(11)

    def test_stride_slices_partition_the_plan(self):
        plan = SubmissionPlan(PLATFORM, 12, seed=0)
        seen = []
        for client in range(3):
            seen.extend(plan.slice_for(client, 3, 4))
        assert len(seen) == 12
        everything = [plan.body(i) for i in range(12)]
        for entry in everything:
            assert entry in seen

    def test_slice_rejects_client_outside_fleet(self):
        plan = SubmissionPlan(PLATFORM, 8, seed=0)
        with pytest.raises(ConfigurationError):
            plan.slice_for(3, 3, 1)

    def test_arrival_shapes(self):
        for shape in ("poisson", "uniform", "sinusoid"):
            assert arrival_process(shape, 1.0) is not None
        with pytest.raises(ConfigurationError):
            arrival_process("bursty", 1.0)
        with pytest.raises(ConfigurationError):
            arrival_process("poisson", 0.0)

    def test_plan_needs_positive_size(self):
        with pytest.raises(ConfigurationError):
            SubmissionPlan(PLATFORM, 0)


# ----------------------------------------------------------------------
# Percentiles and the artifact
# ----------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank_small_population(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 25.0) == 1.0
        assert percentile(samples, 50.0) == 2.0
        assert percentile(samples, 75.0) == 3.0
        assert percentile(samples, 100.0) == 4.0

    def test_p99_and_p999_on_a_thousand(self):
        samples = [float(i) for i in range(1, 1001)]
        assert percentile(samples, 50.0) == 500.0
        assert percentile(samples, 99.0) == 990.0
        assert percentile(samples, 99.9) == 999.0

    def test_empty_population_reads_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)

    def test_latency_summary_of_samples(self):
        summary = LatencySummary.of([3.0, 1.0, 2.0])
        assert summary.count == 3
        assert summary.p50 == 2.0
        assert summary.max == 3.0
        assert summary.mean == pytest.approx(2.0)

    def test_latency_summary_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert summary.p999 == 0.0


class TestLoadReportArtifact:
    def test_round_trip_validates(self):
        report = LoadReport(seed=1, clients=2, mode="closed")
        report.submits = 10
        report.accepted = 7
        report.rejected = 3
        report.submit_latencies = [0.01] * 10
        report.reject_reasons["ingress-full"] = 3
        report.endpoint_requests["/v1/reservations/batch"] = 2
        report.wall_seconds = 2.0
        doc = report.to_dict()
        assert validate(doc, LOADGEN_SCHEMA) == []
        assert doc["accept_rate"] == pytest.approx(0.7)
        assert doc["submits_per_second"] == pytest.approx(5.0)
        assert doc["latency"]["count"] == 10
        assert doc["endpoints"]["/v1/reservations/batch"]["per_second"] == 1.0

    def test_merge_folds_counters_and_samples(self):
        fleet = LoadReport(seed=0, clients=2, mode="closed")
        a = LoadReport(seed=0, clients=2, mode="closed")
        a.submits, a.accepted, a.submit_latencies = 3, 3, [0.1, 0.2, 0.3]
        b = LoadReport(seed=0, clients=2, mode="closed")
        b.submits, b.rejected, b.submit_latencies = 2, 2, [0.4, 0.5]
        b.reject_reasons["egress-full"] = 2
        fleet.merge(a)
        fleet.merge(b)
        assert fleet.submits == 5
        assert fleet.decided == 5
        assert fleet.accept_rate == pytest.approx(0.6)
        assert sorted(fleet.submit_latencies) == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert fleet.reject_reasons["egress-full"] == 2

    def test_schema_rejects_malformed_artifact(self):
        report = LoadReport(seed=0, clients=1, mode="closed")
        doc = report.to_dict()
        doc["mode"] = "open"  # not in the enum
        assert validate(doc, LOADGEN_SCHEMA) != []
        report.mode = "open"
        with pytest.raises(SchemaError):
            report.to_dict()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestLoadgenConfig:
    def test_rejects_nonpositive_fleet(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(host="h", port=1, clients=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(host="h", port=1, mode="open")

    def test_rejects_unbounded_run(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(host="h", port=1, target_submissions=0, duration_s=0.0)

    def test_rejects_nonpositive_timescale(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(host="h", port=1, timescale=0.0)


# ----------------------------------------------------------------------
# Live fleet against an in-process service
# ----------------------------------------------------------------------
class TestRunLoad:
    def _run(self, config_overrides=None, app_overrides=None, perf=None, timeout=None):
        async def inner():
            app = make_app(**(app_overrides or {}))
            host, port = await app.start()
            settings = dict(
                clients=4, batch=8, target_submissions=96, seed=3
            )
            settings.update(config_overrides or {})
            config = LoadgenConfig(host=host, port=port, **settings)
            report = await asyncio.wait_for(
                run_load(config, platform=PLATFORM, perf=perf or TickClock(step=0.001)),
                timeout,
            )
            await app.drain()
            return app, report

        return asyncio.run(inner())

    def test_closed_fleet_hits_the_target(self):
        app, report = self._run()
        assert report.submits == 96
        assert report.decided == 96
        assert report.transport_errors == 0
        assert report.http_errors == 0
        assert len(report.submit_latencies) == 96
        assert all(latency > 0 for latency in report.submit_latencies)
        assert app.gateway.stats.submits == 96

    def test_report_validates_and_counts_endpoints(self):
        _, report = self._run()
        report.wall_seconds = max(report.wall_seconds, 1e-9)
        doc = report.to_dict()
        assert validate(doc, LOADGEN_SCHEMA) == []
        assert doc["endpoints"]["/v1/reservations/batch"]["requests"] == 12

    def test_single_submit_mode_uses_singleton_endpoint(self):
        _, report = self._run({"batch": 1, "target_submissions": 8, "clients": 2})
        assert report.submits == 8
        assert report.endpoint_requests["/v1/reservations"] == 8

    def test_auxiliary_reads_share_the_connection(self):
        _, report = self._run(
            {"status_every": 4, "cancel_every": 8, "target_submissions": 32}
        )
        assert report.submits == 32
        assert report.endpoint_requests["/v1/reservations/{rid}"] > 0

    def test_paced_mode_with_timescale(self):
        _, report = self._run(
            {
                "mode": "paced",
                "timescale": 10_000.0,
                "target_submissions": 32,
                "clients": 2,
            }
        )
        assert report.submits == 32
        assert report.mode == "paced"

    def test_paced_mode_stops_at_the_deadline(self):
        # Each client's second batch is planned seconds away: the pace
        # sleep must end at the 0.5 s wall deadline and send nothing after
        # it, so the run is over well inside the 5 s guard.
        _, report = self._run(
            {"mode": "paced", "target_submissions": 0, "duration_s": 0.5, "clients": 2},
            perf=WallClock(),
            timeout=5,
        )
        assert report.submits > 0

    def test_duration_bound_stops_the_fleet(self):
        # TickClock advances 1 ms per read: the deadline trips after a
        # bounded number of reads, so the run ends without a target.
        _, report = self._run(
            {"target_submissions": 0, "duration_s": 0.05, "clients": 2}
        )
        assert report.submits > 0
