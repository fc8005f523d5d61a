"""Tests for the telemetry handle, isolation, and the run artifact."""

import json

import pytest

from repro.core import ConfigurationError
from repro.obs import (
    NullTelemetry,
    RunTelemetry,
    SchemaError,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
    validate_artifact,
)


class TestHandle:
    def test_default_handle_is_null(self):
        assert isinstance(get_telemetry(), NullTelemetry)
        assert not get_telemetry().enabled

    def test_null_discards_everything(self):
        null = NullTelemetry()
        null.emit("x", 0.0, a=1)
        assert null.events == []
        assert null.is_empty()

    def test_use_telemetry_restores_previous(self):
        before = get_telemetry()
        tel = Telemetry()
        with use_telemetry(tel):
            assert get_telemetry() is tel
        assert get_telemetry() is before

    def test_use_telemetry_restores_on_exception(self):
        before = get_telemetry()
        with pytest.raises(RuntimeError):
            with use_telemetry(Telemetry()):
                raise RuntimeError("boom")
        assert get_telemetry() is before

    def test_set_telemetry_returns_previous(self):
        before = get_telemetry()
        tel = Telemetry()
        try:
            assert set_telemetry(tel) is before
            assert get_telemetry() is tel
        finally:
            set_telemetry(before)

    def test_nested_handles_shadow(self):
        outer, inner = Telemetry(), Telemetry()
        with use_telemetry(outer):
            get_telemetry().emit("outer", 0.0)
            with use_telemetry(inner):
                get_telemetry().emit("inner", 1.0)
        assert [e.name for e in outer.events] == ["outer"]
        assert [e.name for e in inner.events] == ["inner"]


class TestEvents:
    def test_emit_records_fields(self):
        tel = Telemetry()
        tel.emit("service.submit", 5.0, rid=3, outcome="accepted")
        event = tel.events[0]
        assert (event.time, event.name) == (5.0, "service.submit")
        assert event.fields == {"rid": 3, "outcome": "accepted"}

    def test_event_cap_drops_fifo(self):
        tel = Telemetry(max_events=3)
        for k in range(7):
            tel.emit(f"e{k}", float(k))
        assert [e.name for e in tel.events] == ["e4", "e5", "e6"]
        assert tel.events_dropped == 4

    def test_cap_must_not_be_negative(self):
        with pytest.raises(ConfigurationError):
            Telemetry(max_events=-1)

    def test_zero_caps_keep_metrics_only(self):
        tel = Telemetry(max_events=0, max_spans=0)
        assert tel.enabled and not tel.traced
        tel.emit("e", 0.0)
        tel.tracer.instant("s", 0.0)
        tel.metrics.counter("c_total", "A counter.").inc()
        assert (tel.events, len(tel.tracer)) == ([], 0)
        assert (tel.events_dropped, tel.tracer.dropped) == (1, 1)
        assert "c_total 1" in tel.metrics.to_prometheus_text()
        assert Telemetry(max_events=0).traced and Telemetry(max_spans=0).traced
        assert not NullTelemetry().traced

    def test_snapshot_reports_drops(self):
        tel = Telemetry(max_events=1, max_spans=1)
        tel.emit("a", 0.0)
        tel.emit("b", 1.0)
        tel.tracer.instant("x", 0.0)
        tel.tracer.instant("y", 1.0)
        snap = tel.snapshot()
        assert snap["dropped"] == {"events": 1, "spans": 1}


class TestRunTelemetry:
    def _artifact(self):
        tel = Telemetry()
        tel.metrics.counter("service_submits_total").inc(outcome="accepted")
        tel.tracer.complete("reservation", 0.0, 10.0, cat="service")
        tel.emit("service.submit", 0.0, rid=0, outcome="accepted")
        artifact = RunTelemetry("unit", meta={"seed": 1})
        artifact.capture("run", tel, results={"accept_rate": 1.0})
        return artifact

    def test_roundtrip_through_disk(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "run.json"
        artifact.save(path)
        loaded = RunTelemetry.load(path)
        assert loaded.to_json() == artifact.to_json()
        assert loaded.labels() == ["run"]

    def test_json_is_byte_stable(self):
        assert self._artifact().to_json() == self._artifact().to_json()

    def test_validates_against_schema(self):
        validate_artifact(json.loads(self._artifact().to_json()))

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SchemaError):
            RunTelemetry.from_dict({"format": "not-telemetry"})

    def test_registry_rebuild(self):
        artifact = self._artifact()
        registry = artifact.registry("run")
        assert registry.counter("service_submits_total").value(outcome="accepted") == 1.0

    def test_chrome_trace_merges_captures(self):
        tel_a, tel_b = Telemetry(), Telemetry()
        tel_a.tracer.complete("a", 0.0, 1.0)
        tel_b.tracer.complete("b", 1.0, 2.0)
        artifact = RunTelemetry("multi")
        artifact.capture("first", tel_a)
        artifact.capture("second", tel_b)
        doc = artifact.chrome_trace()
        pids = {e["name"]: e["pid"] for e in doc["traceEvents"]}
        assert pids == {"a": 0, "b": 1}
