"""Tests for the flight recorder (repro.obs.recorder).

A bounded per-component ring of recent events, dumped to a deterministic,
schema-validated post-mortem artifact whenever the invariant checker
fails — and on demand from drills.
"""

import json

import pytest

from repro.core.platform import Platform
from repro.gateway import Gateway, check_gateway
from repro.obs import FlightRecorder, validate_flight_dump
from repro.obs.cli import main
from repro.obs.schema import SchemaError


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


class TestRingBuffer:
    def test_capacity_bounds_each_component_with_exact_drop_accounting(self):
        recorder = FlightRecorder(capacity=3)
        for k in range(8):
            recorder.record("gateway", float(k), f"e{k}")
        recorder.record("rpc.shard0", 99.0, "lonely")
        assert [e.t for e in recorder.entries("gateway")] == [5.0, 6.0, 7.0]
        assert recorder.dropped("gateway") == 5
        assert recorder.dropped("rpc.shard0") == 0
        assert recorder.components() == ["gateway", "rpc.shard0"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_entries_keep_fields(self):
        recorder = FlightRecorder()
        recorder.record("slo", 1.5, "slo.breach", rule="accept-rate-floor", value=0.0)
        (entry,) = recorder.entries("slo")
        assert entry.kind == "slo.breach"
        assert entry.fields == {"rule": "accept-rate-floor", "value": 0.0}


class TestDump:
    def _recorder(self):
        recorder = FlightRecorder(capacity=4)
        for k in range(6):
            recorder.record("gateway", float(k), "tick", k=k)
        recorder.record("rpc.shard1", 2.0, "rpc.prepare", rid=3)
        return recorder

    def test_dump_is_schema_valid(self):
        dump = self._recorder().dump(reason="drill", now=6.0)
        validate_flight_dump(dump)
        assert dump["reason"] == "drill" and dump["now"] == 6.0
        components = {c["component"]: c for c in dump["components"]}
        assert components["gateway"]["dropped"] == 2
        assert len(components["gateway"]["events"]) == 4

    def test_dump_json_is_byte_stable(self):
        a = self._recorder().dump_json(reason="drill", now=6.0)
        b = self._recorder().dump_json(reason="drill", now=6.0)
        assert a == b
        assert a.endswith("\n")
        validate_flight_dump(json.loads(a))

    def test_save_dump_writes_the_artifact(self, tmp_path):
        path = self._recorder().save_dump(
            tmp_path / "nested" / "FLIGHT.json", reason="on-demand", now=6.0
        )
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_flight_dump(document)
        assert document["reason"] == "on-demand"

    def test_schema_rejects_malformed_dumps(self):
        dump = self._recorder().dump(reason="drill", now=6.0)
        del dump["components"]
        with pytest.raises(SchemaError):
            validate_flight_dump(dump)

    def test_cli_validates_flight_dumps(self, tmp_path, capsys):
        path = self._recorder().save_dump(tmp_path / "f.json", reason="x", now=0.0)
        assert main(["validate", str(path)]) == 0
        assert "valid flight document" in capsys.readouterr().out


class TestFailureCapture:
    def test_invariant_violation_attaches_a_schema_valid_dump(self):
        recorder = FlightRecorder()
        gw = Gateway(platform(), num_shards=2, recorder=recorder)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        gw.brokers[0].book_pair(0, 0, ((0.0, 10.0, 50.0),))  # behind the gateway's back
        report = check_gateway(gw, now=0.0)
        assert not report.ok
        assert report.flight is not None
        validate_flight_dump(report.flight)
        assert report.flight["reason"].startswith("invariant-violation:")
        # The recorder retained the causal records leading up to the failure.
        components = {c["component"] for c in report.flight["components"]}
        assert "gateway" in components
        # ... but the dump stays out of the matrix-cell payload.
        assert "flight" not in report.to_dict()

    def test_clean_audit_attaches_nothing(self):
        recorder = FlightRecorder()
        gw = Gateway(platform(), num_shards=2, recorder=recorder)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        report = check_gateway(gw, now=0.0)
        assert report.ok and report.flight is None

    def test_recorderless_gateway_fails_without_a_dump(self):
        gw = Gateway(platform(), num_shards=2)
        gw.brokers[0].book_pair(0, 0, ((0.0, 10.0, 50.0),))
        report = check_gateway(gw, now=0.0)
        assert not report.ok and report.flight is None

    def test_recorder_runs_even_under_null_telemetry(self):
        recorder = FlightRecorder()
        gw = Gateway(platform(), num_shards=2, recorder=recorder)
        assert not gw.telemetry.enabled
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        assert recorder.components(), "recorder must not depend on telemetry"
