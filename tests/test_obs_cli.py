"""Tests for the grid-obs CLI (repro.obs.cli)."""

import json

import pytest

from repro.obs import RunTelemetry, Telemetry
from repro.obs.cli import main


@pytest.fixture
def artifact_path(tmp_path):
    tel = Telemetry()
    submits = tel.metrics.counter("gateway_submits_total")
    submits.inc(2.0, outcome="accepted")
    submits.inc(outcome="rejected")
    tel.metrics.counter("gateway_rejects_total").inc(reason="ingress-full")
    tel.tracer.complete("reservation", 0.0, 100.0, cat="gateway")
    tel.emit("gateway.submit", 0.0, rid=0, outcome="accepted")
    artifact = RunTelemetry("cli-test")
    artifact.capture("run", tel)
    path = tmp_path / "run.json"
    artifact.save(path)
    return path


class TestSummary:
    def test_text_summary(self, artifact_path, capsys):
        assert main(["summary", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "2 accepted / 1 rejected" in out
        assert "ingress-full" in out
        assert "reservation" in out

    def test_json_summary(self, artifact_path, capsys):
        assert main(["summary", str(artifact_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accepted"] == 2
        assert data["rejected"] == 1
        assert data["reject_reasons"] == {"ingress-full": 1}
        assert "port_peaks" not in data

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["summary", "/no/such/artifact.json"]) == 2

    def test_non_artifact_json_is_usage_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"whatever": 1}')
        assert main(["summary", str(bogus)]) == 2


class TestGatewayPlaneSummary:
    """Satellite regression: summaries cover the sharded-gateway counters —
    shard-unreachable rejections and backlog re-admissions included."""

    def _partitioned_artifact(self, tmp_path):
        import random

        from repro.core.platform import Platform
        from repro.gateway import ChaosPolicy, Gateway
        from repro.schedulers.retry import BackoffSchedule

        telemetry = Telemetry()
        gw = Gateway(
            Platform.uniform(4, 4, 1000.0),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy.with_partition(1, 0.0, 150.0, seed=0),
            backoff=BackoffSchedule(base=1.0, max_attempts=4),
            rpc_deadline=60.0,
            backlog_limit=8,
            telemetry=telemetry,
        )
        rng = random.Random(11)
        arrivals = sorted(
            (
                rng.uniform(0.0, 300.0),
                rng.randrange(4),
                rng.randrange(4),
                rng.uniform(10.0, 40.0),
                rng.uniform(60.0, 200.0),
            )
            for _ in range(20)
        )
        for t0, ingress, egress, rate, duration in arrivals:
            gw.submit(
                ingress=ingress,
                egress=egress,
                volume=0.5 * rate * duration,
                deadline=t0 + duration,
                now=t0,
                max_rate=rate,
            )
        gw.drain(500.0)
        assert gw.stats.readmitted > 0, "fixture must exercise the backlog"
        artifact = RunTelemetry("partition-run")
        artifact.capture("run", telemetry)
        path = tmp_path / "partition.json"
        artifact.save(path)
        return path

    def test_summary_surfaces_unreachable_shards_and_readmissions(self, tmp_path, capsys):
        path = self._partitioned_artifact(tmp_path)
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shard-unreachable" in out
        assert "backlog re-admissions:" in out

    def test_json_summary_counts_both_planes(self, tmp_path, capsys):
        path = self._partitioned_artifact(tmp_path)
        assert main(["summary", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reject_reasons"].get("shard-unreachable", 0) > 0
        assert data["readmissions"] > 0
        assert data["accepted"] > 0
        # The per-edge channel counters ride along in the counter table.
        assert any(k.startswith("gateway_channel_") for k in data["counters"])


class TestConvert:
    def test_to_chrome_writes_valid_trace(self, artifact_path, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["convert", str(artifact_path), "--to", "chrome", "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"][0]["name"] == "reservation"
        assert main(["validate", str(out_path), "--kind", "chrome"]) == 0

    def test_to_jsonl(self, artifact_path, capsys):
        assert main(["convert", str(artifact_path), "--to", "jsonl"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "reservation"

    def test_to_prometheus(self, artifact_path, capsys):
        assert main(["convert", str(artifact_path), "--to", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert 'gateway_submits_total{outcome="accepted"} 2' in out
        assert "# capture: run" in out


class TestValidate:
    def test_auto_sniffs_artifact(self, artifact_path, capsys):
        assert main(["validate", str(artifact_path)]) == 0
        assert "valid artifact" in capsys.readouterr().out

    def test_auto_sniffs_chrome(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": []}))
        assert main(["validate", str(trace)]) == 0
        assert "valid chrome" in capsys.readouterr().out

    def test_invalid_document_exits_1(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert main(["validate", str(broken), "--kind", "chrome"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unreadable_json_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["validate", str(garbage)]) == 2
