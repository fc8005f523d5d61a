"""Tests for the sim-clock span tracer (repro.obs.tracer)."""

import pytest

from repro.core import ConfigurationError
from repro.obs import Span, SpanTracer, validate_chrome_trace
from repro.obs.tracer import SECONDS_TO_TRACE_US


class TestSpans:
    def test_complete_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            SpanTracer().complete("x", 2.0, 1.0)

    def test_instant_is_zero_length(self):
        span = SpanTracer().instant("arrival", 3.0)
        assert span.kind == "instant"
        assert span.duration == 0.0

    def test_filtering(self):
        tracer = SpanTracer()
        tracer.complete("a", 0.0, 1.0, cat="x")
        tracer.complete("a", 1.0, 2.0, cat="y")
        tracer.complete("b", 0.0, 1.0, cat="x")
        assert len(tracer.spans(name="a")) == 2
        assert len(tracer.spans(cat="x")) == 2
        assert len(tracer.spans(name="a", cat="x")) == 1


class TestCapacity:
    def test_fifo_eviction_counts_dropped(self):
        tracer = SpanTracer(capacity=3)
        for k in range(8):
            tracer.complete(f"s{k}", float(k), float(k) + 1.0)
        assert len(tracer) == 3
        assert tracer.dropped == 5
        assert [s.name for s in tracer] == ["s5", "s6", "s7"]

    def test_capacity_must_not_be_negative(self):
        with pytest.raises(ConfigurationError):
            SpanTracer(capacity=-1)
        tracer = SpanTracer(capacity=0)
        tracer.instant("s", 0.0)
        tracer.complete("c", 0.0, 1.0)
        assert (list(tracer), tracer.dropped) == ([], 2)


class TestTracedRunDeterminism:
    """Satellite contract: capped tracing drops exactly, exports bytes."""

    def _traced_run(self, max_spans=None):
        import random

        from repro.core.platform import Platform
        from repro.gateway import ChaosPolicy, Gateway
        from repro.obs import RunTelemetry, Telemetry

        telemetry = Telemetry(max_spans=max_spans)
        gw = Gateway(
            Platform.uniform(4, 4, 1000.0),
            num_shards=2,
            batch_size=2,
            chaos=ChaosPolicy.lossy(seed=3),
            rpc_deadline=60.0,
            backlog_limit=4,
            telemetry=telemetry,
        )
        rng = random.Random(42)
        arrivals = sorted(
            (
                rng.uniform(0.0, 200.0),
                rng.randrange(4),
                rng.randrange(4),
                rng.uniform(100.0, 900.0),
                rng.uniform(60.0, 180.0),
            )
            for _ in range(15)
        )
        for t0, ingress, egress, volume, window in arrivals:
            gw.submit(
                ingress=ingress,
                egress=egress,
                volume=volume,
                deadline=t0 + window,
                now=t0,
            )
        gw.drain(400.0)
        artifact = RunTelemetry("tracer-determinism")
        artifact.capture("run", telemetry)
        return telemetry, artifact

    def test_capped_tracer_accounts_every_drop(self):
        unbounded, _ = self._traced_run()
        total = len(unbounded.tracer)
        assert total > 5
        capped, _ = self._traced_run(max_spans=5)
        assert len(capped.tracer) == 5
        assert capped.tracer.dropped == total - 5
        # The retained tail is exactly the last five spans of the full run.
        tail = [s.to_dict() for s in list(iter(unbounded.tracer))[-5:]]
        assert [s.to_dict() for s in capped.tracer] == tail

    def test_traced_export_is_byte_identical_across_runs(self):
        _, first = self._traced_run()
        _, second = self._traced_run()
        assert first.to_json() == second.to_json()

    def test_capped_export_is_byte_identical_too(self):
        _, first = self._traced_run(max_spans=7)
        _, second = self._traced_run(max_spans=7)
        assert first.to_json() == second.to_json()


class TestChromeTrace:
    def _tracer(self):
        tracer = SpanTracer()
        tracer.complete("transfer", 100.0, 250.0, cat="service", tid=2, rid=1, bw=33.0)
        tracer.instant("arrival", 100.0, cat="sim")
        return tracer

    def test_export_shapes(self):
        doc = self._tracer().to_chrome_trace(pid=5)
        events = {e["ph"]: e for e in doc["traceEvents"]}
        assert events["X"]["ts"] == pytest.approx(100.0 * SECONDS_TO_TRACE_US)
        assert events["X"]["dur"] == pytest.approx(150.0 * SECONDS_TO_TRACE_US)
        assert events["X"]["args"] == {"rid": 1, "bw": 33.0}
        assert events["i"]["s"] == "t"
        assert all(e["pid"] == 5 for e in doc["traceEvents"])

    def test_export_validates_against_schema(self):
        validate_chrome_trace(self._tracer().to_chrome_trace())

    def test_span_dict_roundtrip(self):
        span = Span(name="x", start=1.0, end=2.0, cat="c", tid=4, args={"k": 1}, kind="span")
        assert Span.from_dict(span.to_dict()) == span
