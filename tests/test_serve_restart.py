"""Drain → restart: the service survives SIGTERM without losing a decision.

The property, over several seeds: run a seeded workload through a
journalled service, drain it with submissions still parked on the
frontier, rebuild a successor from the journal, and the successor is
snapshot-equal to the drained instance — and both match an uninterrupted
in-process gateway fed the identical waves.  Subprocess tests cover
the real signal path (``grid-serve`` + SIGTERM over a socket) and what
``grid-serve`` and ``grid-loadgen`` exit with.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.gateway import Gateway
from repro.gateway.invariants import check_gateway
from repro.loadgen import ServiceClient, SubmissionPlan
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock
from repro.serve.http import HttpRequest

from .conftest import checked

REPO = Path(__file__).parent.parent

PLATFORM = Platform.uniform(4, 4, 100.0)


def make_config(journal_path, **overrides):
    settings = dict(
        platform=PLATFORM,
        num_shards=2,
        batch_size=4,
        slo_rules=(),
        journal_path=journal_path,
        max_wave=1024,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


def wave_fields(plan: SubmissionPlan, start: int, count: int):
    """``count`` consecutive plan bodies as (gateway fields, at) pairs."""
    out = []
    for k in range(start, start + count):
        entry = plan.body(k)
        at = entry.pop("at")
        entry["client"] = "anonymous"
        out.append((entry, at))
    return out


async def drained_run(seed: int, journal_path):
    """Serve a seeded workload, drain mid-flight, return the app + decisions."""
    plan = SubmissionPlan(PLATFORM, 64, seed=seed, mean_interarrival=0.5)
    app = ServeApp(make_config(journal_path), clock=LogicalClock())
    host, port = await app.start()
    client = ServiceClient(host, port)
    await client.connect()
    decisions = []

    # Phase 1: two deterministic waves over HTTP (batch endpoint keeps
    # submission order fixed regardless of socket scheduling).
    for start in (0, 16):
        bodies = [plan.body(k) for k in range(start, start + 16)]
        resp = await client.request(
            "POST", "/v1/reservations/batch", payload={"submissions": bodies}
        )
        assert resp.status == 200
        decisions.extend(resp.json()["decisions"])
    await client.close()

    # Phase 2: park submissions on the frontier and drain *before* any
    # flush — the in-flight wave must be decided by the drain itself.
    parked = [
        asyncio.ensure_future(app.frontier.submit(checked(PLATFORM, at, **fields), at=at))
        for fields, at in wave_fields(plan, 32, 8)
    ]
    # One yield: every submit has parked and scheduled the wave's flush
    # for the next loop turn, which the drain below gets in ahead of.
    await asyncio.sleep(0)
    assert len(app.frontier) == 8
    await app.drain()
    tickets = await asyncio.gather(*parked)
    assert all(t.decided for t in tickets)
    decisions.extend(
        {"rid": t.rid, "outcome": "accepted" if t.confirmed else "rejected"}
        for t in tickets
    )
    return app, decisions


def uninterrupted_reference(seed: int) -> Gateway:
    """The same waves through a bare in-process gateway, no service, no drain
    mid-flight — the decision-equivalence baseline."""
    plan = SubmissionPlan(PLATFORM, 64, seed=seed, mean_interarrival=0.5)
    gateway = Gateway(PLATFORM, num_shards=2, batch_size=4)
    for start, count in ((0, 16), (16, 16), (32, 8)):
        pairs = wave_fields(plan, start, count)
        now = max(at for _, at in pairs)
        gateway.submit_many([fields for fields, _ in pairs], now=now)
    gateway.drain(max(at for _, at in wave_fields(plan, 32, 8)))
    return gateway


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_drain_restart_is_snapshot_equal_and_decision_equivalent(seed, tmp_path):
    journal_path = tmp_path / f"serve-{seed}.journal.jsonl"
    app, decisions = asyncio.run(drained_run(seed, journal_path))
    assert len(decisions) == 40
    drained_snapshot = app.gateway.snapshot()

    # The uninterrupted gateway decides every submission identically.
    reference = uninterrupted_reference(seed)
    for decision in decisions:
        ticket = reference.get(decision["rid"])
        expected = "accepted" if ticket.confirmed else "rejected"
        assert decision["outcome"] in (expected, "accepted", "rejected")
        assert decision["outcome"] == expected, (
            f"seed {seed} rid {decision['rid']}: served {decision['outcome']},"
            f" in-process {expected}"
        )

    # A successor whose gateway settings disagree with the journal's header
    # is refused, each setting named and the journal untouched; one that
    # differs only outside the header (the frontier's wave) replays to the
    # same state.
    written = journal_path.read_bytes()
    changed = make_config(journal_path, num_shards=1, batch_size=8, ordering="min-laxity")
    with pytest.raises(ConfigurationError, match="batch_size, num_shards, ordering differ"):
        ServeApp(changed, clock=LogicalClock())
    assert journal_path.read_bytes() == written
    successor = ServeApp(make_config(journal_path, max_wave=8), clock=LogicalClock())
    assert successor.gateway.num_shards == 2
    assert successor.snapshot() == drained_snapshot
    report = check_gateway(
        successor.gateway, journal=successor.journal, expect_quiesced=True
    )
    assert report.ok, report.violations

    # And it keeps serving: fresh rids continue past the replayed range.
    next_ticket = successor.gateway.submit(
        ingress=0,
        egress=1,
        volume=1.0,
        deadline=successor.gateway.now + 500.0,
        now=successor.gateway.now,
    )
    assert next_ticket.rid == drained_snapshot["next_rid"]
    successor.journal.close()


def test_restarted_app_resumes_clock_past_replayed_time(tmp_path):
    journal_path = tmp_path / "resume.journal.jsonl"
    app, _ = asyncio.run(drained_run(3, journal_path))
    successor = ServeApp(make_config(journal_path))  # default wall clock
    assert successor.clock.now() >= app.gateway.now
    assert successor.gateway.now == app.gateway.now


@contextmanager
def grid_serve(argv):
    """A ``grid-serve`` process: yields ``(process, host, port)`` once it
    listens; kills it if the body left it running, and closes its pipe."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listening line: {line!r}"
        yield proc, match.group(1), int(match.group(2))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_grid_serve_sigterm_drains_and_journal_replays(tmp_path):
    """The real signal path: a grid-serve process, SIGTERM, then replay and
    a successor restored from the drain's checkpoint."""
    journal_path = tmp_path / "proc.journal.jsonl"
    argv = ["--port", "0", "--ports", "4", "--shards", "2", "--journal", str(journal_path)]
    with grid_serve(argv) as (proc, host, port):

        async def drive():
            client = ServiceClient(host, port)
            await client.connect()
            accepted = []
            for i in range(6):
                resp = await client.request(
                    "POST",
                    "/v1/reservations",
                    payload={
                        "ingress": i % 4,
                        "egress": (i + 1) % 4,
                        "volume": 5.0,
                        "deadline": 100_000.0,
                    },
                )
                assert resp.status in (200, 201)
                accepted.append(resp.json()["rid"])
            await client.close()
            return accepted

        rids = asyncio.run(drive())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0

    # The journal the process left behind ends in the drain's checkpoint,
    # and replays into a quiesced gateway holding every decision it served.
    from repro.gateway import Journal

    journal = Journal.load(journal_path)
    assert [entry.op for entry in list(journal)[-2:]] == ["drain", "checkpoint"]
    gateway = Gateway.replay(journal)
    for rid in rids:
        assert gateway.get(rid).decided
    report = check_gateway(gateway, journal=journal, expect_quiesced=True)
    assert report.ok, report.violations
    assert report.checks["replayed"] == 2

    # The successor, started with the same flags, restores the checkpoint,
    # snapshot-equal to the replay.
    from repro.serve.cli import _parser, build_app

    successor = build_app(_parser().parse_args(argv))
    assert successor.snapshot() == gateway.snapshot()


def test_grid_serve_refuses_a_restart_with_other_flags_in_one_line(tmp_path, capsys):
    from repro.serve.cli import main

    journal_path = tmp_path / "one.journal.jsonl"
    argv = ["--port", "0", "--ports", "4", "--journal", str(journal_path)]
    with grid_serve([*argv, "--shards", "1"]) as (proc, _, _):
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
    written = journal_path.read_bytes()
    assert main([*argv, "--shards", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("grid-serve: journal ") and err.endswith("num_shards differ\n")
    assert err.count("\n") == 1
    assert journal_path.read_bytes() == written


@pytest.mark.parametrize("gen_keys", [2, 0], ids=["keyed", "open"])
def test_grid_loadgen_exits_1_when_no_request_is_answered(gen_keys, capsys):
    """Driven without ``--keys``, every batch a keyed service gets is
    refused 401: the run fails.  Against open access it passes."""
    from repro.loadgen.cli import main

    argv = ["--port", "0", "--ports", "4", "--gen-keys", str(gen_keys)]
    with grid_serve(argv) as (_, host, port):
        load = ["--host", host, "--port", str(port), "--ports", "4", "--clients", "2"]
        status = main([*load, "--batch", "4", "--target", "16"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    if gen_keys:
        assert status == 1
        assert report["submits"] == 0 and report["http_errors"] > 0
        reason = f"grid-loadgen: {report['http_errors']} request(s) failed"
        assert captured.err.splitlines()[-1] == reason
    else:
        assert status == 0
        assert report["submits"] == 16 and report["http_errors"] == 0
        assert "grid-loadgen:" not in captured.err


def test_journal_file_is_json_lines(tmp_path):
    journal_path = tmp_path / "fmt.journal.jsonl"
    asyncio.run(drained_run(1, journal_path))
    lines = journal_path.read_text().strip().splitlines()
    assert len(lines) > 1
    ops = [json.loads(line) for line in lines]
    assert any(op.get("op") == "drain" for op in ops if isinstance(op, dict))


def test_refused_delete_before_drain_moves_nothing(tmp_path):
    """``DELETE`` of an unknown rid as the last request before the drain,
    with the service clock ahead of the last journaled op: the 404 leaves
    gateway state and journal untouched, and the successor resumes
    snapshot-equal."""
    journal_path = tmp_path / "refused.journal.jsonl"

    async def run():
        plan = SubmissionPlan(PLATFORM, 16, seed=5, mean_interarrival=0.5)
        app = ServeApp(make_config(journal_path), clock=LogicalClock())
        host, port = await app.start()
        client = ServiceClient(host, port)
        await client.connect()
        resp = await client.request(
            "POST",
            "/v1/reservations/batch",
            payload={"submissions": [plan.body(k) for k in range(16)]},
        )
        assert resp.status == 200
        app.clock.advance(app.gateway.now + 30.0)
        before, entries = app.gateway.snapshot(), len(app.journal)
        resp = await client.request("DELETE", "/v1/reservations/999999")
        assert resp.status == 404
        assert app.gateway.snapshot() == before
        assert len(app.journal) == entries
        await client.close()
        await app.drain()
        return app

    app = asyncio.run(run())
    successor = ServeApp(make_config(journal_path), clock=LogicalClock())
    assert successor.snapshot() == app.gateway.snapshot()
    report = check_gateway(successor.gateway, journal=successor.journal, expect_quiesced=True)
    assert report.ok, report.violations


def test_explain_is_the_same_text_after_a_restart(tmp_path):
    """A successor restored from the drain's checkpoint tells a pre-restart
    rid's story as the drained app did: both rebuild it by replaying the
    journal, whose lines survive the restart."""
    journal_path = tmp_path / "explain.journal.jsonl"
    app, decisions = asyncio.run(drained_run(11, journal_path))
    successor = ServeApp(make_config(journal_path), clock=LogicalClock())
    assert successor.gateway.journal.has_checkpoint()

    async def stories(service):
        texts = []
        for decision in decisions[::7]:
            path = f"/v1/reservations/{decision['rid']}"
            request = HttpRequest("GET", path, {"explain": "1"}, {}, b"")
            response = await service.dispatch(request)
            assert response.status == 200
            texts.append(response.payload["explain"])
        return texts

    before = asyncio.run(stories(app))
    assert all(f"req-{d['rid']}" in text for d, text in zip(decisions[::7], before))
    assert asyncio.run(stories(successor)) == before
    successor.journal.close()
