"""Record now, render on read: what the split must not change.

The telemetry write path only *stores* (ring records, bound metric
samples); spans, events and exposition are rendered when something reads
them.  These tests hold the rendered side to the eager formula the write
path used to run — same values, same key order, same bytes — and pin the
ring semantics (O(1) eviction, exact ``dropped``) on all three FIFO caps.
"""

import hashlib
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.journal import Journal
from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, Gateway
from repro.obs import (
    MetricsRegistry,
    RunTelemetry,
    Span,
    SpanTracer,
    Telemetry,
    TraceContext,
    explain_request,
)
from repro.schedulers.retry import BackoffSchedule
from repro.sim.trace import EventTrace


def seeded_run(seed, telemetry):
    """A traced 4-shard gateway run over a lossy mesh, with one broker
    crash/restart (backlog re-admissions) and one cancel-and-rebook.

    Returns ``(gateway, journal, rebooked ticket)``.
    """
    journal = Journal()
    gw = Gateway(
        Platform.uniform(8, 8, 1000.0),
        num_shards=4,
        batch_size=4,
        hold_ttl=120.0,
        chaos=ChaosPolicy.lossy(seed=seed),
        backoff=BackoffSchedule(base=1.0, max_attempts=4),
        rpc_deadline=60.0,
        backlog_limit=8,
        journal=journal,
        telemetry=telemetry,
    )
    rng = random.Random(seed)
    arrivals = sorted(
        (
            rng.uniform(0.0, 300.0),
            rng.randrange(8),
            rng.randrange(8),
            rng.uniform(500.0, 4000.0),
            rng.uniform(60.0, 200.0),
        )
        for _ in range(40)
    )
    crashed = restarted = False
    rebooked = None
    for t0, ingress, egress, volume, window in arrivals:
        if not crashed and t0 >= 100.0:
            gw.crash_broker(1, now=t0)
            crashed = True
        if not restarted and t0 >= 160.0:
            gw.restart_broker(1, now=t0)
            restarted = True
        gw.submit(ingress=ingress, egress=egress, volume=volume, deadline=t0 + window, now=t0)
        if rebooked is None and t0 >= 60.0:
            victim = next(r for r in gw.reservations() if r.confirmed)
            gw.cancel(victim.rid, now=t0)
            req = victim.request
            rebooked = gw.submit(
                ingress=req.ingress,
                egress=req.egress,
                volume=req.volume,
                deadline=req.t_end + 200.0,
                now=t0,
                origin=victim.rid,
            )
    gw.drain(600.0)
    return gw, journal, rebooked


def artifact_of(telemetry, seed):
    artifact = RunTelemetry("write-path", meta={"seed": seed})
    artifact.capture("run", telemetry)
    return artifact


class EagerTracer(SpanTracer):
    """The reference: a causal hop rendered the moment it is recorded,
    with the formula the write path ran before it was split off, and a
    record rendered the moment it is stored — so a record that read state
    changed after its decision (a reshaped or cancelled ticket) would
    differ from it."""

    def instant(self, name, t, fields=None, /, *, cat="", tid=0, ctx=None, **kwargs):
        own = kwargs if fields is None else fields
        args = {**ctx.fields(), **own} if ctx is not None else dict(own)
        return self._push(
            Span(name=name, start=t, end=t, cat=cat, tid=tid, args=args, kind="instant")
        )

    def store(self, record):
        for span in record.spans():
            super().store(span)


class EagerTelemetry(Telemetry):
    """The reference's events: a stored record rendered at once."""

    def store(self, record):
        t, name, fields = record.event()
        self.emit(name, t, fields)


def run_pair(seed):
    production = Telemetry()
    gw, journal, rebooked = seeded_run(seed, production)
    reference = EagerTelemetry()
    reference.tracer = EagerTracer()
    seeded_run(seed, reference)
    return gw, journal, rebooked, production, reference


#: SHA-256 of ``artifact_of(telemetry, seed).to_json()`` as the eager
#: write path of PR 14 produced it, minus the one simulated-cost field each
#: of its 41 ``gateway.batch`` events carried (PR 17 deleted that model;
#: checked once: PR 16's artifact with exactly those 41 keys removed is
#: this one byte for byte — was ``e380add3…`` / ``d5381b1e…``).
PARENT_ARTIFACT_SHA256 = {
    1: "a9a609199c749e077fb6960a35375c73dbdaaa375416d80d10e6f1f183879728",
    7: "34e6d8dc30c129048d5114b412fe8bb105bcc11d740bdba2b5753408f48da720",
}


#: SHA-256 of ``json.dumps(telemetry.snapshot())`` — key order kept — as
#: the per-hop write path before decision records produced it.
PARENT_SNAPSHOT_SHA256 = {
    1: "b1c6dd0bb3031fac80724f96c900c68ea4c1bb3bfaec117e1fa7171b4a79258d",
    7: "89007c6cc75acc2da270a5541cdad423d496d27e9a32e10f88505a5156ff2c68",
}


@pytest.mark.parametrize("seed", [1, 7])
class TestExportsAreTheSameBytes:
    def test_the_run_exercises_every_kind_of_hop(self, seed):
        gw, _, rebooked, production, _ = run_pair(seed)
        assert gw.stats.readmitted > 0 and gw.stats.chaos_drops > 0
        assert rebooked.origin is not None
        cats = {span.cat for span in production.tracer}
        assert {"causal", "rpc", "chaos", "gateway"} <= cats

    def test_spans_equal_in_value_and_key_order(self, seed):
        _, _, _, production, reference = run_pair(seed)
        assert production.tracer.to_dicts() == reference.tracer.to_dicts()
        # dict equality ignores key order; the dump does not.
        assert json.dumps(production.tracer.to_dicts()) == json.dumps(
            reference.tracer.to_dicts()
        )
        assert production.tracer.to_jsonl() == reference.tracer.to_jsonl()
        assert json.dumps(production.tracer.to_chrome_trace()) == json.dumps(
            reference.tracer.to_chrome_trace()
        )

    def test_snapshot_and_artifact(self, seed):
        _, _, _, production, reference = run_pair(seed)
        assert json.dumps(production.snapshot()) == json.dumps(reference.snapshot())
        text = artifact_of(production, seed).to_json()
        assert text == artifact_of(reference, seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PARENT_ARTIFACT_SHA256[seed]

    def test_key_order_is_the_parents(self, seed):
        """The artifact sorts keys; the snapshot dumped as is does not."""
        _, _, _, production, _ = run_pair(seed)
        text = json.dumps(production.snapshot())
        assert hashlib.sha256(text.encode()).hexdigest() == PARENT_SNAPSHOT_SHA256[seed]

    def test_explain_text(self, seed):
        gw, journal, rebooked, production, reference = run_pair(seed)
        readmitted = next(r for r in gw.reservations() if r.origin not in (None, rebooked.origin))
        plain = next(
            r.rid for r in gw.reservations() if r.origin is None and r.rid != rebooked.origin
        )
        for rid in (plain, rebooked.origin, readmitted.origin):
            story = explain_request(artifact_of(production, seed), rid, journal=journal)
            assert story is not None
            assert story == explain_request(artifact_of(reference, seed), rid, journal=journal)
        # Lineage: the rebooking and the re-admission ride their origin's trace.
        rebook_story = explain_request(artifact_of(production, seed), rebooked.origin)
        assert f'span="req-{rebooked.origin}/rebook:{rebooked.rid}"' in rebook_story
        readmit_story = explain_request(artifact_of(production, seed), readmitted.origin)
        assert f'span="req-{readmitted.origin}/readmit:{readmitted.rid}"' in readmit_story

    def test_metrics_text(self, seed):
        _, _, _, production, reference = run_pair(seed)
        text = production.metrics.to_prometheus_text()
        assert text == reference.metrics.to_prometheus_text()
        assert "gateway_submits_total" in text


def chaos_off_run(telemetry):
    """A traced 4-shard, batch-8 gateway run with no chaos policy: every
    placement takes the direct path (``rpc.book`` / ``rpc.book_pair``
    hops).  Waves of one to six submissions per instant; one cross-shard
    booking is refused by its egress broker after the search passed (an
    ``egress-full`` abort, rid 132) and one reservation is cancelled and
    rebooked (origin rid 124).  Returns ``(gateway, journal)``.
    """
    journal = Journal()
    gw = Gateway(
        Platform.uniform(8, 8, 1000.0),
        num_shards=4,
        batch_size=8,
        journal=journal,
        telemetry=telemetry,
    )
    rng = random.Random(1)
    t = 0.0
    for wave in range(40):
        t += rng.expovariate(0.1)
        for _ in range(rng.randint(1, 6)):
            ingress, egress = rng.randrange(8), rng.randrange(8)
            window = rng.uniform(30.0, 150.0)
            gw.submit(
                ingress=ingress,
                egress=egress,
                volume=rng.uniform(0.05, 0.6) * 1000.0 * window,
                deadline=t + window,
                now=t,
            )
        if wave == 36:
            victim = [r for r in gw.reservations() if r.confirmed][-1]
            gw.cancel(victim.rid, now=t)
            req = victim.request
            gw.submit(
                ingress=req.ingress,
                egress=req.egress,
                volume=req.volume,
                deadline=req.t_end + 100.0,
                now=t,
                origin=victim.rid,
            )
        if wave == 37:
            broker = gw.brokers[1]
            book_side = broker.book_side

            def refuse_one_egress(side, port, segments):
                if side != "egress":
                    return book_side(side, port, segments)
                del broker.book_side  # one refusal, then the real method again
                return False

            broker.book_side = refuse_one_egress
    gw.drain(t + 1.0)
    return gw, journal


#: SHA-256 of the chaos-off run's exports under ``Telemetry(max_events=37,
#: max_spans=53)``, as the per-hop write path before decision records
#: produced them: the artifact, ``explain_request`` of the rebooked origin
#: and of the aborted rid (with the journal), the Prometheus text and the
#: snapshot dumped with its key order.
CHAOS_OFF_SHA256 = {
    "artifact": "b2998fb6c00becf1713239a05f292069005060ae86b630b87a6175ec89be4f37",
    "explain-124": "f71d27e2ac33b6df6cb8a1f94879a52fce385baa7a7e5499dcaa591dc0d78d04",
    "explain-132": "71a9bfcf6d6663c7fc9509a7b2989ac30b70c0f37cd5fe84255763fb6fc09bf5",
    "metrics": "5cce6e897cfbf9b4f03bad00aaba854e3a5b2ec9effab301bc7a3e14e0fe8f49",
    "snapshot": "d6a82e07ac0c2aa7e03fbcc162844325c87663aa5958cbfa0eca50f08c1ad85c",
}


class TestChaosOffExports:
    """The direct path's hops under caps that evict mid-decision."""

    def test_the_run_covers_the_direct_path(self):
        telemetry = Telemetry(max_events=37, max_spans=53)
        gw, _ = chaos_off_run(telemetry)
        stats = gw.stats
        assert stats.fastpath_hits > 0 and stats.local > 0 and stats.cross_shard > 0
        assert stats.rejected > 0 and stats.twophase_aborts == 1 and stats.cancelled == 1
        assert gw.get(132).reject_reason.value == "egress-full"
        assert gw.get(131).origin == 124 and gw.get(131).confirmed
        spans = list(telemetry.tracer)
        assert (len(spans), len(telemetry.tracer), telemetry.tracer.dropped) == (53, 53, 570)
        assert {"rpc.book", "rpc.book_pair"} <= {span.name for span in spans}
        # The cap cut the rebooking's decision after its two ``rpc.book`` hops.
        assert spans[0].name == "gateway.trace.decision" and spans[0].args["rid"] == 131
        assert (len(telemetry.events), telemetry.events_dropped) == (37, 150)

    def test_exports_are_the_pinned_bytes(self):
        telemetry = Telemetry(max_events=37, max_spans=53)
        _, journal = chaos_off_run(telemetry)
        artifact = RunTelemetry("chaos-off", meta={"seed": 1})
        artifact.capture("run", telemetry)
        texts = {
            "artifact": artifact.to_json(),
            "explain-124": explain_request(artifact, 124, journal=journal),
            "explain-132": explain_request(artifact, 132, journal=journal),
            "metrics": telemetry.metrics.to_prometheus_text(),
            "snapshot": json.dumps(telemetry.snapshot()),
        }
        digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}
        assert digests == CHAOS_OFF_SHA256


class TestOneDictWrites:
    """A hot caller hands its fields over as one dict (no keyword parse
    per call); what is read back is what keywords would have recorded."""

    def test_instant(self):
        by_keyword, by_dict = SpanTracer(), SpanTracer()
        ctx = TraceContext.root(3).child("book")
        by_keyword.instant("hop", 1.0, cat="rpc", tid=2, ctx=ctx, shard=2, rid=3)
        by_keyword.instant("mark", 2.0, cat="sim", n=1)
        by_dict.instant("hop", 1.0, {"shard": 2, "rid": 3}, cat="rpc", tid=2, ctx=ctx)
        returned = by_dict.instant("mark", 2.0, {"n": 1}, cat="sim")
        assert json.dumps(by_dict.to_dicts()) == json.dumps(by_keyword.to_dicts())
        assert by_dict.to_dicts()[0]["args"] == {
            "trace": "req-3", "span": "req-3/book", "parent": "req-3", "shard": 2, "rid": 3,
        }  # fmt: skip
        # Only a plain marker hands its span back; a hop is not rendered.
        assert returned.kind == "instant" and returned.args == {"n": 1}
        assert by_dict.instant("hop", 3.0, {}, ctx=ctx) is None

    def test_emit(self):
        by_keyword, by_dict = Telemetry(), Telemetry()
        by_keyword.emit("decision", 4.0, rid=1, fields="a field may be named fields")
        by_dict.emit("decision", 4.0, {"rid": 1, "fields": "a field may be named fields"})
        assert by_dict.snapshot() == by_keyword.snapshot()
        assert by_dict.events[0].fields["rid"] == 1

    def test_a_dict_and_keywords_together_are_refused(self):
        """One form or the other: silently keeping only the dict would
        lose the keywords."""
        tracer, telemetry = SpanTracer(), Telemetry()
        with pytest.raises(TypeError, match="as a dict and as keywords"):
            tracer.instant("hop", 1.0, {"shard": 2}, ctx=TraceContext.root(3), rid=3)
        with pytest.raises(TypeError, match="as a dict and as keywords"):
            telemetry.emit("decision", 4.0, {"rid": 1}, outcome="accepted")
        assert len(tracer) == 0 and telemetry.events_emitted == 0

    def test_histogram_bucket_choice(self):
        """``observe`` bisects; same bucket as ``first bound >= value``."""
        bounds = (0.1, 1.0, 10.0)
        for value, bucket in (
            (-1.0, 0), (0.1, 0), (0.11, 1), (1.0, 1), (5.0, 2), (10.0, 2), (10.5, 3),
            (float("inf"), 3), (float("nan"), 3),
        ):  # fmt: skip
            histogram = MetricsRegistry().histogram("h", buckets=bounds)
            histogram.observe(value)
            assert histogram.to_dict()["samples"][0]["counts"].index(1) == bucket, value


class TestBoundSamples:
    def test_a_child_that_never_fires_exposes_nothing(self):
        registry = MetricsRegistry()
        accepted = registry.bind_counter("decisions_total", "By outcome.", outcome="accepted")
        registry.bind_counter("decisions_total", "By outcome.", outcome="rejected")
        latency = registry.bind_histogram("latency_seconds", "Latency.", (0.1, 1.0))
        # Bound ahead of use, nothing fired: nothing is registered.
        assert registry.to_prometheus_text() == ""
        assert registry.to_dict() == {"metrics": []}
        assert len(registry) == 0 and "decisions_total" not in registry
        assert registry.get("decisions_total") is None
        accepted.inc()
        accepted.inc(2.0)
        text = registry.to_prometheus_text()
        assert 'decisions_total{outcome="accepted"} 3' in text
        assert "rejected" not in text and "latency_seconds" not in text
        assert registry.names() == ["decisions_total"]
        latency.observe(0.5)
        assert registry.get("latency_seconds").buckets == (0.1, 1.0)
        assert registry.get("latency_seconds").count() == 1

    def test_registry_membership_is_registration(self):
        """A family someone asked the registry for is there — ``in``,
        ``len``, ``get`` and both exports agree — whether or not it, or a
        child bound on it, has fired."""
        registry = MetricsRegistry()
        family = registry.counter("decisions_total", "Decisions by outcome.")
        family.labels(outcome="accepted")
        assert "decisions_total" in registry and len(registry) == 1
        assert registry.get("decisions_total") is family
        assert registry.to_prometheus_text() == (
            "# HELP decisions_total Decisions by outcome.\n# TYPE decisions_total counter\n"
        )
        again = MetricsRegistry.from_dict(registry.to_dict())
        assert again.names() == ["decisions_total"]

    def test_a_bound_child_joins_the_family_addressed_by_name(self):
        registry = MetricsRegistry()
        child = registry.bind_counter("c", "bound first", side="ingress")
        registry.counter("c", "named first").inc(side="ingress")
        child.inc()
        assert registry.counter("c").value(side="ingress") == 2.0
        assert registry.counter("c").help == "named first"
        with pytest.raises(ConfigurationError, match="already registered as counter"):
            registry.bind_histogram("c").observe(1.0)

    def test_children_address_the_same_samples_as_labels(self):
        by_name, bound = MetricsRegistry(), MetricsRegistry()
        by_name.counter("c", "help").inc(port=3, side="ingress")
        by_name.histogram("h", "help").observe(0.3, kind="x")
        by_name.gauge("g").inc(-2.0, port=1)
        bound.counter("c", "help").labels(side="ingress", port=3).inc()
        bound.histogram("h", "help").labels(kind="x").observe(0.3)
        bound.gauge("g").labels(port=1).inc(-2.0)
        assert bound.to_prometheus_text() == by_name.to_prometheus_text()
        assert bound.to_json() == by_name.to_json()

    def test_a_bound_counter_still_cannot_decrease(self):
        registry = MetricsRegistry()
        for child in (registry.counter("c").labels(), registry.bind_counter("d")):
            with pytest.raises(ConfigurationError, match="cannot decrease"):
                child.inc(-1.0)  # as a first firing ...
            child.inc()
            with pytest.raises(ConfigurationError, match="cannot decrease"):
                child.inc(-1.0)  # ... and after one
        assert registry.counter("c").total() == registry.counter("d").total() == 1.0

    def test_an_untouched_gateway_family_is_absent_until_it_fires(self):
        telemetry = Telemetry()
        gw = Gateway(Platform.uniform(2, 2, 1000.0), telemetry=telemetry)
        gw.submit(ingress=0, egress=1, volume=10.0, deadline=100.0, now=0.0)
        text = telemetry.metrics.to_prometheus_text()
        assert 'gateway_submits_total{outcome="accepted"} 1' in text
        # Bound alongside, never fired: no sample, no HELP/TYPE header.
        assert 'outcome="rejected"' not in text
        assert "gateway_rejects_total" not in text


class SpanBatch:
    """A ring record of the given spans."""

    def __init__(self, spans):
        self._spans = spans
        self.width = len(spans)

    def spans(self):
        return self._spans


class OneEvent:
    """An event-ring record of one ``(time, name, fields)``."""

    def __init__(self, event):
        self._event = event

    def event(self):
        return self._event


class TestRings:
    """FIFO caps evict in O(1) and account for every drop: push 3x the
    capacity, keep exactly the tail."""

    CAPACITY = 50
    PUSHED = 3 * CAPACITY

    def test_span_tracer(self):
        tracer = SpanTracer(capacity=self.CAPACITY)
        for k in range(self.PUSHED):
            tracer.instant(f"s{k}", float(k))
        tail = [f"s{k}" for k in range(self.PUSHED - self.CAPACITY, self.PUSHED)]
        assert [span.name for span in tracer] == tail
        assert [span.name for span in tracer.spans()] == tail
        assert [row["name"] for row in tracer.to_dicts()] == tail
        assert len(tracer) == self.CAPACITY
        assert tracer.dropped == self.PUSHED - self.CAPACITY

    def test_telemetry_events(self):
        telemetry = Telemetry(max_events=self.CAPACITY)
        for k in range(self.PUSHED):
            telemetry.emit(f"e{k}", float(k), k=k)
        events = telemetry.events
        assert [e.name for e in events] == [
            f"e{k}" for k in range(self.PUSHED - self.CAPACITY, self.PUSHED)
        ]
        assert events[0].fields == {"k": self.PUSHED - self.CAPACITY}
        assert events[-1].time == float(self.PUSHED - 1)
        assert len(events) + telemetry.events_dropped == self.PUSHED
        assert telemetry.events_emitted == self.PUSHED
        assert telemetry.snapshot()["dropped"]["events"] == self.PUSHED - self.CAPACITY
        # ``events`` is a snapshot: a later emit does not show in it.
        telemetry.emit("late", float(self.PUSHED))
        assert events[-1].name != "late" and telemetry.events[-1].name == "late"

    def test_event_trace(self):
        trace = EventTrace(capacity=self.CAPACITY)
        for k in range(self.PUSHED):
            trace.append(float(k), f"l{k}", k)
        first = self.PUSHED - self.CAPACITY
        assert [r.label for r in trace] == [f"l{k}" for k in range(first, self.PUSHED)]
        assert trace[0].payload == first and trace[-1].payload == self.PUSHED - 1
        assert trace[self.CAPACITY // 2].payload == first + self.CAPACITY // 2
        assert trace.times() == [float(k) for k in range(first, self.PUSHED)]
        summary = trace.summary()
        assert (summary["retained"], summary["dropped"], summary["recorded"]) == (
            self.CAPACITY,
            self.PUSHED - self.CAPACITY,
            self.PUSHED,
        )
        assert trace.dropped == self.PUSHED - self.CAPACITY

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.one_of(st.none(), st.integers(1, 13)),
        widths=st.lists(st.integers(0, 5), max_size=40),
    )
    def test_a_record_ring_is_a_per_span_fifo(self, capacity, widths):
        """Records of 1..5 spans, plain spans (width 0 below) and causal
        hops, under caps that split records: after every write the tracer
        reads as a ``deque(maxlen=capacity)`` fed the same spans one by one."""
        tracer, reference = SpanTracer(capacity=capacity), deque(maxlen=capacity)
        for k, width in enumerate(widths):
            if width == 0 and k % 2:
                ctx = TraceContext.root(k)
                tracer.instant(f"hop{k}", float(k), {"k": k}, cat="rpc", tid=k, ctx=ctx)
                args = {**ctx.fields(), "k": k}
                spans = [Span(f"hop{k}", float(k), float(k), "rpc", k, args, "instant")]
            elif width == 0:
                spans = [tracer.instant(f"mark{k}", float(k), {"k": k})]
            else:
                spans = [Span(f"r{k}.{j}", float(k), float(k) + j, args={"j": j}) for j in range(width)]
                tracer.store(SpanBatch(spans))
            reference.extend(spans)
            assert [s.to_dict() for s in tracer] == [s.to_dict() for s in reference]
            assert len(tracer) == len(reference)
        pushed = sum(max(width, 1) for width in widths)
        assert tracer.dropped == pushed - len(reference)
        assert tracer.to_jsonl() == "".join(
            json.dumps(s.to_dict(), sort_keys=True, separators=(",", ":")) + "\n" for s in reference
        )

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.one_of(st.none(), st.integers(1, 7)),
        stored=st.lists(st.booleans(), max_size=30),
    )
    def test_an_event_record_is_one_event(self, capacity, stored):
        telemetry, reference = Telemetry(max_events=capacity), deque(maxlen=capacity)
        for k, as_record in enumerate(stored):
            event = (float(k), f"e{k}", {"k": k})
            if as_record:
                telemetry.store(OneEvent(event))
            else:
                telemetry.emit(event[1], event[0], dict(event[2]))
            reference.append(event)
        assert [e.to_dict() for e in telemetry.events] == [
            {"time": t, "name": name, "fields": fields} for t, name, fields in reference
        ]
        assert telemetry.events_dropped == len(stored) - len(reference)
        assert telemetry.events_emitted == len(stored)

    def test_unbounded_rings_keep_everything(self):
        tracer, telemetry, trace = SpanTracer(), Telemetry(), EventTrace()
        for k in range(self.PUSHED):
            tracer.instant("s", float(k))
            telemetry.emit("e", float(k))
            trace.append(float(k), "l")
        assert (len(tracer), len(telemetry.events), len(trace)) == (self.PUSHED,) * 3
        assert (tracer.dropped, telemetry.events_dropped, trace.dropped) == (0, 0, 0)


class TestTraceRootsStayBounded:
    def test_plain_submits_leave_no_context_behind(self):
        telemetry = Telemetry(max_events=100, max_spans=100)
        gw = Gateway(Platform.uniform(4, 4, 1e9), batch_size=8, telemetry=telemetry)
        for k in range(5000):
            gw.submit(
                ingress=k % 4, egress=(k + 1) % 4, volume=1.0, deadline=k + 100.0, now=float(k)
            )
        gw.drain(5000.0)
        assert gw.stats.accepted == 5000
        assert gw._trace_roots == {}
        # ... and every hop was still traced, on the derived root.
        last = [s for s in telemetry.tracer if s.name == "gateway.trace.decision"][-1]
        assert last.args["trace"] == last.args["span"] == "req-4999"

    def test_only_lineage_is_kept(self):
        gw, _, rebooked, _, _ = run_pair(1)
        joined = {r.rid for r in gw.reservations() if r.origin is not None}
        assert rebooked.rid in joined
        assert set(gw._trace_roots) >= joined
        # Failed re-admission attempts burn rids that joined a trace too;
        # nothing else is in the map.
        assert all(ctx.parent_id is not None for ctx in gw._trace_roots.values())
