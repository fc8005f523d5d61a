"""``?explain=1`` rebuilds a request's story by replaying the journal.

The serving telemetry keeps metrics only, so :meth:`ServeApp.explain`
replays the journal into a throwaway traced gateway.  These tests hold
its text to what a traced twin — the same requests, with every record
kept — renders with :func:`~repro.obs.causal.explain_request`, on a
service that sees every kind of story: accepted, rejected, edge-refused,
cancelled, a lossy mesh, backlog re-admissions after a broker crash
(one of them cancelled later) and displacements after a degrade.  They
also hold what the replay costs, and that the loop keeps serving while
it runs.
"""

import asyncio
import json
import random
import re

from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, EdgeLimit, Gateway, Journal, JournalEntry, lifecycle
from repro.obs import RunTelemetry, Telemetry, explain_request
from repro.obs.telemetry import use_telemetry
from repro.schedulers.retry import BackoffSchedule
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock
from repro.serve.http import HttpRequest

PLATFORM = Platform.uniform(8, 8, 1000.0)


#: The gateway settings a ``ServeConfig`` holds, as ``chaos_app`` sets them
#: (a successor must ask for the same).
SERVED = dict(
    num_shards=4, batch_size=4, hold_ttl=120.0, backlog_limit=8, edge=EdgeLimit(rate=2e4, burst=4e5)
)


def chaos_app(path, telemetry=None):
    """A service over a lossy 4-shard mesh with a re-admission backlog and a
    per-client volume edge: what ``ServeConfig`` cannot ask for comes from
    the journal header the service resumes."""
    Gateway(
        PLATFORM,
        chaos=ChaosPolicy.lossy(seed=5),
        backoff=BackoffSchedule(base=1.0, max_attempts=4),
        rpc_deadline=60.0,
        journal=Journal(path=path),
        **SERVED,
    )
    config = ServeConfig(platform=PLATFORM, journal_path=path, **SERVED)
    app = ServeApp(config, clock=LogicalClock(), telemetry=telemetry)
    assert app.gateway.chaos is not None and app.gateway.backlog_limit == 8
    return app


def call(app, method, path, payload=None, query=None):
    raw = b"" if payload is None else json.dumps(payload).encode()
    return app.dispatch(HttpRequest(method, path, query or {}, {}, raw))


async def drive(app, seed=3, waves=40):
    """Batch and single submissions, cancels over HTTP; a broker crash and
    restart and a degrade on the gateway, as an operator's tooling would."""
    rng = random.Random(seed)
    gateway = app.gateway
    t = max(0.0, gateway.now)

    def submission():
        window = rng.uniform(30.0, 150.0)
        return {
            "ingress": rng.randrange(8),
            "egress": rng.randrange(8),
            "volume": rng.uniform(0.05, 0.6) * 1000.0 * window,
            "deadline": t + window,
            "at": t,
        }

    for wave in range(waves):
        t += rng.expovariate(0.2)
        app.clock.advance(t)
        if wave == 10:
            gateway.crash_broker(1, now=t)
        elif wave == 16:
            gateway.restart_broker(1, now=t)
        elif wave == 24:
            gateway.degrade(side="ingress", port=2, amount=900.0, start=t, end=t + 400.0, now=t)
        if wave % 3 == 0:
            entries = [submission() for _ in range(rng.randint(4, 12))]
            await call(app, "POST", "/v1/reservations/batch", {"submissions": entries})
        else:
            singles = [submission() for _ in range(rng.randint(2, 6))]
            await asyncio.gather(*(call(app, "POST", "/v1/reservations", s) for s in singles))
        if wave % 5 == 4:
            live = [r for r in gateway.reservations() if r.confirmed and r.terminated_at is None]
            readmitted = [r for r in live if r.origin is not None]
            victim = (readmitted or live)[-1]
            await call(app, "DELETE", f"/v1/reservations/{victim.rid}")


def tickets_of(gateway, rids):
    """The tickets of ``rids`` (a refused re-admission attempt's rid has none)."""
    tickets = []
    for rid in rids:
        try:
            tickets.append(gateway.get(rid))
        except KeyError:
            continue
    return tickets


def full_story(app):
    """``rid -> story`` of a traced app from its whole capture and journal."""
    artifact = RunTelemetry("twin")
    artifact.capture("serve", app.telemetry)
    entries = list(app.journal)
    return lambda rid: explain_request(artifact, rid, journal=entries)


def test_replayed_stories_equal_a_traced_twins(tmp_path):
    app = chaos_app(tmp_path / "served.jsonl")
    twin = chaos_app(tmp_path / "twin.jsonl", Telemetry())
    for service in (app, twin):
        asyncio.run(drive(service))
    assert (tmp_path / "served.jsonl").read_bytes() == (tmp_path / "twin.jsonl").read_bytes()
    assert len(app.telemetry.tracer) == 0 and len(app.telemetry.events) == 0
    story_of = full_story(twin)

    next_rid = app.gateway.snapshot()["next_rid"]
    tickets = tickets_of(app.gateway, range(next_rid))
    assert len(tickets) >= 200 and len(tickets) < next_rid

    async def explain_all():
        return {ticket.rid: await app.explain(ticket.rid) for ticket in tickets}

    stories = asyncio.run(explain_all())
    for ticket in tickets:
        assert stories[ticket.rid] == story_of(ticket.rid), ticket.rid

    # Every kind of story is in the sample.
    kinds = {
        "accepted": [t for t in tickets if t.confirmed and t.terminated_at is None],
        "rejected": [t for t in tickets if not t.confirmed and not t.edge_refused],
        "edge-refused": [t for t in tickets if t.edge_refused],
        "cancelled": [t for t in tickets if t.cancelled_at is not None],
        "displaced": [t for t in tickets if t.displaced_at is not None],
        "readmitted": [t for t in tickets if t.origin is not None],
        "chaos": [t for t in tickets if re.search(r"^t=\S+ +chaos ", stories[t.rid], re.M)],
    }
    assert all(kinds.values()), {kind: len(found) for kind, found in kinds.items()}
    readmitted_cancelled = [t for t in kinds["readmitted"] if t.cancelled_at is not None]
    assert readmitted_cancelled
    # The origin's story carries its re-admission's cancel, a later entry
    # naming another rid of the same trace.
    origin = readmitted_cancelled[0].origin
    assert "gateway.trace.cancel" in stories[origin]
    assert "gateway.trace.readmit_decision" in stories[origin]
    # A refused re-admission attempt's rid is no ticket: it has no story.
    refused = min(set(range(next_rid)) - {t.rid for t in tickets})
    assert asyncio.run(app.explain(refused)) is None
    for service in (app, twin):
        service.journal.close()


def test_a_rid_after_a_checkpoint_is_replayed_from_it(tmp_path, monkeypatch):
    """A successor restored from a drain's checkpoint explains its own rids
    from that checkpoint, as its traced twin tells them."""
    services = {}
    for name, telemetry in (("served", None), ("twin", Telemetry())):
        path = tmp_path / f"{name}.jsonl"
        first = chaos_app(path)
        asyncio.run(drive(first, seed=4, waves=12))
        asyncio.run(first.drain())
        config = ServeConfig(platform=PLATFORM, journal_path=path, **SERVED)
        successor = ServeApp(config, clock=LogicalClock(), telemetry=telemetry)
        successor.clock.advance(successor.gateway.now)
        services[name] = successor
    restored = services["served"].gateway.snapshot()["next_rid"]
    for service in services.values():
        asyncio.run(drive(service, seed=9, waves=12))
    app, story_of = services["served"], full_story(services["twin"])
    lines = app.journal.lines()
    checkpoint = next(k for k, line in enumerate(lines) if line.startswith('{"op": "checkpoint"'))
    after = JournalEntry.from_dict(json.loads(lines[checkpoint + 1]))

    replayed = []
    replay_ops = lifecycle.replay_ops
    monkeypatch.setattr(
        lifecycle,
        "replay_ops",
        lambda plane, entries: replay_ops(plane, replayed.extend(entries) or entries),
    )
    tickets = tickets_of(app.gateway, range(restored, app.gateway.snapshot()["next_rid"]))
    assert len(tickets) > 20
    for ticket in tickets:
        del replayed[:]
        assert asyncio.run(app.explain(ticket.rid)) == story_of(ticket.rid), ticket.rid
        assert replayed[0] == after
    for service in services.values():
        service.journal.close()


def long_journal_app(tmp_path):
    """A service whose journal holds 100 batches of 16: explaining its
    newest rid replays long enough to yield to the loop several times.
    Returns the app (its batches not yet sent) and a body maker."""
    app = ServeApp(
        ServeConfig(platform=PLATFORM, num_shards=2, batch_size=8, slo_rules=(),
                    journal_path=tmp_path / "wal.jsonl"),
        clock=LogicalClock(),
    )  # fmt: skip
    rng = random.Random(1)

    def body(t):
        return {"ingress": rng.randrange(8), "egress": rng.randrange(8), "volume": 50.0,
                "deadline": t + 500.0, "at": t}  # fmt: skip

    return app, body


async def fill(app, body):
    for k in range(100):
        entries = [body(float(k)) for _ in range(16)]
        await call(app, "POST", "/v1/reservations/batch", {"submissions": entries})


def test_a_submission_is_answered_while_a_long_explain_replays(tmp_path):
    app, body = long_journal_app(tmp_path)

    async def main():
        await fill(app, body)
        newest = app.gateway.stats.submits - 1
        order = []

        async def explain():
            story = await app.explain(newest)
            order.append("explain")
            return story

        task = asyncio.ensure_future(explain())
        await asyncio.sleep(0)
        response = await call(app, "POST", "/v1/reservations", body(100.0))
        order.append("submit")
        story = await task
        return order, response, newest, story

    order, response, newest, story = asyncio.run(main())
    assert response.status in (200, 201) and response.payload["rid"] == newest + 1
    assert order == ["submit", "explain"]
    assert story.startswith(f"causal timeline for rid {newest} ")
    # The submission that arrived mid-replay is not in the story's journal.
    assert f'"rid": {newest + 1}' not in story
    app.journal.close()


def test_overlapping_explains_replay_one_at_a_time(tmp_path):
    """Two explains asked at once: the second takes its journal snapshot
    only when the first is done, both tell what the same two calls made
    one after the other tell, and a submission made meanwhile is answered
    while the first replays."""
    app, body = long_journal_app(tmp_path)

    async def main():
        await fill(app, body)
        newest = app.gateway.stats.submits - 1
        sequential = [await app.explain(newest), await app.explain(5)]
        order = []
        snapshot = app.journal.lines

        def lines():
            order.append("snapshot")
            return snapshot()

        app.journal.lines = lines

        async def explain(rid):
            story = await app.explain(rid)
            order.append(f"explained {rid}")
            return story

        tasks = [asyncio.ensure_future(explain(rid)) for rid in (newest, 5)]
        await asyncio.sleep(0)
        response = await call(app, "POST", "/v1/reservations", body(100.0))
        order.append("submit")
        overlapping = await asyncio.gather(*tasks)
        return sequential, overlapping, order, response, newest

    sequential, overlapping, order, response, newest = asyncio.run(main())
    assert response.status in (200, 201) and response.payload["rid"] == newest + 1
    assert order == ["snapshot", "submit", f"explained {newest}", "snapshot", "explained 5"]
    assert overlapping == sequential
    assert sequential[0].startswith(f"causal timeline for rid {newest} ")
    assert sequential[1].startswith("causal timeline for rid 5 ")
    app.journal.close()


def test_an_explain_counts_no_replayed_search_and_live_ones_still_count(tmp_path):
    """The booking counters read the process-wide handle.  An explain
    replays each entry under a ``NullTelemetry`` installed there, so inside
    an enabled handle it adds no ``booking_*`` sample, while a submission
    answered mid-replay (one the headroom test cannot take) still counts
    its search."""
    app, body = long_journal_app(tmp_path)

    def heavy(t):
        return {**body(t), "volume": 990.0 * 500.0}

    async def main():
        await fill(app, body)
        entries = [heavy(100.0) for _ in range(16)]
        await call(app, "POST", "/v1/reservations/batch", {"submissions": entries})
        newest = app.gateway.stats.submits - 1
        with use_telemetry(Telemetry()) as ambient:
            alone = await app.explain(newest)
            quiet = list(ambient.metrics.names())
            task = asyncio.ensure_future(app.explain(newest))
            await asyncio.sleep(0)
            response = await call(app, "POST", "/v1/reservations", heavy(101.0))
            story = await task
        return ambient, quiet, response, alone, story

    ambient, quiet, response, alone, story = asyncio.run(main())
    assert alone == story and story is not None
    assert [name for name in quiet if name.startswith("booking_")] == []
    assert response.status in (200, 201, 409)
    searches = ambient.metrics.counter("booking_earliest_fit_total")
    assert searches.total() == 1
    assert ambient.metrics.counter("booking_candidates_examined_total").total() >= 1
    app.journal.close()
