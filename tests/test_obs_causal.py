"""Tests for causal request tracing (repro.obs.causal).

The acceptance contract: a traced gateway run records every pipeline hop
(submit → prepare → commit → decision, plus chaos faults and backlog
re-admissions) under derived trace ids, and ``grid-obs explain <rid>``
reconstructs one request's complete causal timeline byte-identically
across repeated seeded runs.
"""

import json
import random

import pytest

from repro.core.platform import Platform
from repro.core.request import Request
from repro.gateway import ChaosPolicy, Gateway, Journal
from repro.obs import (
    RunTelemetry,
    Telemetry,
    TraceContext,
    explain_request,
)
from repro.obs.cli import main
from repro.schedulers.retry import BackoffSchedule


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


def workload(seed, n=20, ports=4, horizon=300.0):
    rng = random.Random(seed)
    requests = []
    for rid in range(n):
        t0 = rng.uniform(0.0, horizon)
        duration = rng.uniform(60.0, 200.0)
        rate = rng.uniform(10.0, 40.0)
        requests.append(
            Request(
                rid=rid,
                ingress=rng.randrange(ports),
                egress=rng.randrange(ports),
                volume=rng.uniform(0.2, 0.8) * rate * duration,
                t_start=t0,
                t_end=t0 + duration,
                max_rate=rate,
            )
        )
    return sorted(requests, key=lambda r: r.t_start)


def traced_run(seed=11, *, chaos=None, backlog_limit=0, journal=None):
    """One seeded gateway run with tracing enabled; returns (gw, artifact)."""
    telemetry = Telemetry()
    gw = Gateway(
        platform(),
        num_shards=2,
        batch_size=2,
        hold_ttl=120.0,
        chaos=chaos,
        backoff=BackoffSchedule(base=1.0, max_attempts=4),
        rpc_deadline=60.0,
        backlog_limit=backlog_limit,
        journal=journal,
        telemetry=telemetry,
    )
    for request in workload(seed):
        gw.submit(
            ingress=request.ingress,
            egress=request.egress,
            volume=request.volume,
            deadline=request.t_end,
            now=request.t_start,
            max_rate=request.max_rate,
        )
    gw.drain(500.0)
    artifact = RunTelemetry("causal-test", meta={"seed": seed})
    artifact.capture("run", telemetry)
    return gw, artifact


class TestTraceContext:
    def test_root_is_a_pure_function_of_the_rid(self):
        assert TraceContext.root(7) == TraceContext.root(7)
        ctx = TraceContext.root(7)
        assert ctx.trace_id == "req-7" and ctx.span_id == "req-7"
        assert ctx.parent_id is None

    def test_child_extends_the_span_path(self):
        child = TraceContext.root(7).child("prepare:ingress")
        assert child.trace_id == "req-7"
        assert child.span_id == "req-7/prepare:ingress"
        assert child.parent_id == "req-7"
        grand = child.child("retry")
        assert grand.span_id == "req-7/prepare:ingress/retry"
        assert grand.parent_id == "req-7/prepare:ingress"

    def test_fields_omit_absent_parent(self):
        assert TraceContext.root(1).fields() == {"trace": "req-1", "span": "req-1"}
        assert "parent" in TraceContext.root(1).child("x").fields()


#: A policy that injects nothing: the gateway still runs the two-phase
#: protocol (a chaos-off gateway with its brokers up books directly).
ZERO_POLICY = ChaosPolicy(seed=0)


class TestTracedPipeline:
    def test_two_phase_hops_carry_the_trace(self):
        gw, artifact = traced_run(chaos=ZERO_POLICY)
        capture = next(iter(artifact.captures()))
        spans = [s for s in capture["spans"] if s.get("cat") == "rpc"]
        assert spans, "no rpc hops traced"
        cross = [r for r in gw.reservations() if r.confirmed]
        assert cross
        names = {s["name"] for s in spans}
        assert "rpc.prepare" in names and "rpc.commit" in names
        for span in spans:
            args = span["args"]
            assert args["trace"].startswith("req-")
            assert args["span"].startswith(args["trace"])

    def test_direct_booking_is_one_hop_per_owning_broker(self):
        gw, artifact = traced_run()
        capture = next(iter(artifact.captures()))
        hops: dict[int, list] = {}
        for span in capture["spans"]:
            if span.get("cat") == "rpc":
                hops.setdefault(span["args"]["rid"], []).append(span)
        confirmed = [r for r in gw.reservations() if r.confirmed]
        assert {r.rid for r in confirmed} == set(hops)
        assert {s["name"] for spans in hops.values() for s in spans} == {"rpc.book", "rpc.book_pair"}
        for r in confirmed:
            owners = {
                side: gw.shard_map.shard_of(side, port)
                for side, port in (("ingress", r.request.ingress), ("egress", r.request.egress))
            }
            got = [(s["name"], s["args"]["span"], s["args"]["shard"]) for s in hops[r.rid]]
            if owners["ingress"] == owners["egress"]:
                assert got == [("rpc.book_pair", f"req-{r.rid}/book", owners["ingress"])]
            else:
                assert got == [
                    ("rpc.book", f"req-{r.rid}/book:{side}", owners[side])
                    for side in ("ingress", "egress")
                ]

    def test_every_decision_event_carries_its_trace(self):
        _, artifact = traced_run()
        capture = next(iter(artifact.captures()))
        submits = [e for e in capture["events"] if e["name"] == "gateway.submit"]
        assert submits
        for event in submits:
            fields = event["fields"]
            assert fields["trace"] == f"req-{fields['rid']}"

    def test_chaos_faults_are_annotated_on_the_timeline(self):
        gw, artifact = traced_run(chaos=ChaosPolicy.lossy(seed=5), backlog_limit=4)
        assert gw.stats.chaos_drops + gw.stats.chaos_duplicates > 0
        capture = next(iter(artifact.captures()))
        chaos_spans = [s for s in capture["spans"] if s.get("cat") == "chaos"]
        assert chaos_spans, "no chaos faults annotated"
        kinds = {s["name"] for s in chaos_spans}
        assert kinds <= {
            "chaos.drop",
            "chaos.duplicate",
            "chaos.delay",
            "chaos.partition",
            "chaos.crash",
        }
        for span in chaos_spans:
            assert "op" in span["args"] and "trace" in span["args"]

    def test_disabled_telemetry_records_nothing(self):
        gw = Gateway(platform(), num_shards=2)
        for request in workload(3, n=6):
            gw.submit(
                ingress=request.ingress,
                egress=request.egress,
                volume=request.volume,
                deadline=request.t_end,
                now=request.t_start,
                max_rate=request.max_rate,
            )
        gw.drain(500.0)
        assert gw._trace_roots == {}


def two_gateway_artifact():
    """One artifact of two single-request gateways, labelled ``roomy``
    (rid 0 accepted) and ``tight`` (rid 0 rejected: ingress 0 cut to zero)."""
    artifact = RunTelemetry("two-gateways")
    for label, cut in (("roomy", None), ("tight", 1000.0)):
        telemetry = Telemetry()
        gw = Gateway(platform(), num_shards=2, telemetry=telemetry)
        if cut is not None:
            gw.degrade(side="ingress", port=0, amount=cut, start=0.0, end=500.0, now=0.0)
        gw.submit(ingress=0, egress=1, volume=100.0, deadline=100.0, now=0.0)
        artifact.capture(label, telemetry)
    return artifact


class TestExplainRequest:
    def test_reconstructs_the_full_story(self):
        journal = Journal()
        gw, artifact = traced_run(chaos=ZERO_POLICY, journal=journal)
        stories = {
            r.rid: explain_request(artifact, r.rid, journal=journal)
            for r in gw.reservations()
            if r.confirmed
        }
        assert stories and all(s is not None for s in stories.values())
        for rid, story in stories.items():
            assert f"causal timeline for rid {rid}" in story
            assert "journal    submit " in story
            assert "gateway.trace.decision" in story
        # Cross-shard admissions show both two-phase hops; local ones the
        # direct pair booking.  Every confirmed story has its protocol leg.
        assert any("rpc.prepare" in s and "rpc.commit" in s for s in stories.values())
        assert all(
            ("rpc.prepare" in s and "rpc.commit" in s) or "rpc.book_pair" in s
            for s in stories.values()
        )

    def test_reconstructs_a_direct_booking(self):
        journal = Journal()
        gw, artifact = traced_run(journal=journal)
        stories = [
            explain_request(artifact, r.rid, journal=journal)
            for r in gw.reservations()
            if r.confirmed
        ]
        assert stories and any(s.count("rpc.book ") == 2 for s in stories)
        for story in stories:
            assert "gateway.trace.decision" in story
            assert "rpc.prepare" not in story and "rpc.commit" not in story
            assert story.count("rpc.book ") == 2 or story.count("rpc.book_pair") == 1

    def test_includes_injected_faults(self):
        gw, artifact = traced_run(chaos=ChaosPolicy.lossy(seed=5), backlog_limit=4)
        chaos_rids = set()
        capture = next(iter(artifact.captures()))
        for span in capture["spans"]:
            if span.get("cat") == "chaos":
                chaos_rids.add(int(span["args"]["trace"].split("-")[1].split("/")[0]))
        assert chaos_rids
        rid = min(chaos_rids)
        story = explain_request(artifact, rid)
        assert story is not None and "chaos." in story

    def test_follows_readmission_lineage(self):
        gw, artifact = traced_run(
            chaos=ChaosPolicy.with_partition(1, 0.0, 150.0, seed=0), backlog_limit=8
        )
        assert gw.stats.readmitted > 0
        readmitted = next(r for r in gw.reservations() if r.origin is not None)
        story = explain_request(artifact, readmitted.origin)
        assert story is not None
        # The re-admission's fresh rid rides the origin's trace.
        assert f"readmit:{readmitted.rid}" in story

    def test_unknown_rid_returns_none(self):
        _, artifact = traced_run()
        assert explain_request(artifact, 10_000) is None

    def test_byte_identical_across_identical_seeded_runs(self):
        _, first = traced_run(chaos=ChaosPolicy.lossy(seed=9), backlog_limit=4)
        _, second = traced_run(chaos=ChaosPolicy.lossy(seed=9), backlog_limit=4)
        assert first.to_json() == second.to_json()
        for rid in range(20):
            assert explain_request(first, rid) == explain_request(second, rid)

    def test_accepts_the_json_dict_form(self):
        _, artifact = traced_run()
        as_dict = json.loads(artifact.to_json())
        assert explain_request(as_dict, 0) == explain_request(artifact, 0)

    def test_one_block_per_capture(self):
        # rid 0 is a different request in each capture: accepted by a
        # roomy gateway, rejected by one whose ingress port is cut to zero.
        artifact = two_gateway_artifact()
        roomy, tight = explain_request(artifact, 0).split("\n\n")
        assert roomy.startswith("causal timeline for rid 0 in [roomy] ")
        assert tight.startswith("causal timeline for rid 0 in [tight] ")
        assert 'outcome="accepted"' in roomy and 'outcome="rejected"' not in roomy
        assert 'outcome="rejected"' in tight and 'outcome="accepted"' not in tight
        assert "[tight]" not in roomy and "[roomy]" not in tight

    def test_a_journal_belongs_to_one_capture(self):
        with pytest.raises(ValueError, match="2 captures"):
            explain_request(two_gateway_artifact(), 0, journal=Journal())


class TestExplainCli:
    def _write_run(self, tmp_path):
        journal = Journal()
        gw, artifact = traced_run(chaos=ZERO_POLICY, journal=journal)
        art_path = tmp_path / "run.json"
        jr_path = tmp_path / "run.journal.jsonl"
        artifact.save(art_path)
        jr_path.write_text(journal.to_jsonl())
        rid = next(
            r.rid
            for r in gw.reservations()
            if r.confirmed and "rpc.prepare" in explain_request(artifact, r.rid)
        )
        return art_path, jr_path, rid

    def test_explain_prints_the_timeline(self, tmp_path, capsys):
        art, jr, rid = self._write_run(tmp_path)
        code = main(["explain", str(rid), str(art), "--journal", str(jr)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"causal timeline for rid {rid}" in out
        assert "journal" in out and "rpc.prepare" in out

    def test_explain_prints_a_direct_booking(self, tmp_path, capsys):
        gw, artifact = traced_run()
        art = tmp_path / "run.json"
        artifact.save(art)
        rid = next(
            r.rid
            for r in gw.reservations()
            if r.confirmed and "rpc.book " in explain_request(artifact, r.rid)
        )
        assert main(["explain", str(rid), str(art)]) == 0
        out = capsys.readouterr().out
        assert f"req-{rid}/book:ingress" in out and f"req-{rid}/book:egress" in out

    def test_journal_beside_several_captures_exits_two(self, tmp_path, capsys):
        _, jr, _ = self._write_run(tmp_path)
        two = tmp_path / "two.json"
        two_gateway_artifact().save(two)
        assert main(["explain", "0", str(two), "--journal", str(jr)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2 captures" in err

    def test_unknown_rid_exits_one(self, tmp_path, capsys):
        art, _, _ = self._write_run(tmp_path)
        assert main(["explain", "10000", str(art)]) == 1
        assert "no record" in capsys.readouterr().err

    def test_missing_artifact_exits_two(self, capsys):
        assert main(["explain", "1", "no/such/file.json"]) == 2
