"""Checkpoints: a drained gateway's journal ends in its complete state, and
:meth:`Gateway.resume` restores that instead of re-deciding every journaled
submission.

The differential property: cut a random operation stream anywhere, drain,
checkpoint, restore from the journal's JSON text and run the rest of the
stream.  Every answer, every journal line after the cut and the complete
state (``dump_state()``) equal those of the same stream run uninterrupted.
:meth:`Gateway.replay` stays the from-scratch oracle: it ignores
checkpoints, and ``check_gateway`` holds every restore to it.
"""

import asyncio
import dataclasses
import enum
import errno
import json
import math
import random
import shutil
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import make_profile
from repro.core.capacity.vector import VectorProfile
from repro.core.errors import ConfigurationError, ReproError
from repro.core.ledger import Port
from repro.core.packed import pack, unpack
from repro.core.platform import Platform
from repro.core.profile import RateProfile
from repro.gateway import ChaosPolicy, EdgeLimit, Gateway, Journal, JournalEntry, lifecycle
from repro.gateway.invariants import check_gateway
from repro.gateway.tickets import TicketTable
from repro.obs import RunTelemetry, Telemetry
from repro.obs.causal import explain_request
from repro.obs.cli import main as grid_obs
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock

PLATFORM = Platform.uniform(4, 4, 100.0)
DATA = Path(__file__).parent / "data"

#: Operation kinds, submissions weighted up.
KINDS = (
    *("submit",) * 4, *("profile",) * 2,
    "cancel", "abort", "degrade", "reshape", "crash", "restart", "drain",
)  # fmt: skip

#: One operation: (kind, clock step, a, b, size, slack, k) — a/b pick ports
#: or a rid, k a client, side or shard.
OPS = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from([0.0, 0.0, 0.5, 3.0, 17.0]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.floats(50.0, 3000.0),
    st.floats(5.0, 200.0),
    st.integers(0, 2),
)

#: Loses half the deliveries: aborts go missing, so holds outlive their
#: transaction until a crash wipes them or the TTL sweep expires them.
STRANDING = ChaosPolicy.lossy(seed=5, drop=0.5)

CONFIGS = st.fixed_dictionaries(
    {
        "num_shards": st.sampled_from([1, 4]),
        "batch_size": st.sampled_from([1, 8]),
        "malleable": st.booleans(),
        "edge": st.sampled_from([None, EdgeLimit(rate=40.0, burst=3000.0)]),
        "backlog_limit": st.sampled_from([0, 3]),
        # The heavy-drop mesh strands holds (lost aborts) across the cut.
        "chaos": st.sampled_from([None, ChaosPolicy.lossy(seed=5), STRANDING]),
    }
)


def seeded_ops(seed, n):
    """``n`` operations of the :data:`OPS` shape from a seed."""
    rng = random.Random(seed)
    return [
        (
            rng.choice(KINDS), rng.choice([0.0, 0.0, 0.5, 3.0, 17.0]),
            rng.randrange(4), rng.randrange(4), rng.uniform(50.0, 3000.0),
            rng.uniform(5.0, 200.0), rng.randrange(3),
        )  # fmt: skip
        for _ in range(n)
    ]


def apply(gateway, op, now):
    """Run one operation; its answer, or the name of what it raised."""
    kind, _, a, b, size, slack, k = op
    try:
        if kind == "submit":
            deadline = now + size / 100.0 + slack
            ticket = gateway.submit(
                ingress=a, egress=b, volume=size, deadline=deadline, now=now, client=f"c{k}"
            )
            return ticket.row()
        if kind == "profile":
            rate, t0 = 20.0 + slack / 4.0, now + k
            t1 = t0 + size / rate
            ticket = gateway.submit(
                ingress=a, egress=b, volume=size, deadline=t1 + slack, now=now,
                client=f"c{k}", profile=[[t0, t1, rate]],
            )  # fmt: skip
            return ticket.row()
        if kind in ("cancel", "abort", "reshape"):
            return getattr(gateway, kind)(a * 4 + b + 16 * k, now=now)
        if kind == "degrade":
            side = ("ingress", "egress")[k % 2]
            displaced = gateway.degrade(
                side=side, port=a, amount=10.0 + size / 50.0, start=now + b,
                end=now + b + slack, now=now,
            )  # fmt: skip
            return [r.rid for r in displaced]
        if kind == "crash":
            return gateway.crash_broker(k % gateway.num_shards, now=now)
        if kind == "restart":
            for shard, broker in enumerate(gateway.brokers):
                if broker.crashed:
                    gateway.restart_broker(shard, now=now)
            return None
        gateway.drain(now)
        return None
    except (ReproError, KeyError, ValueError) as exc:
        return type(exc).__name__


def lines(entries):
    return [json.dumps(entry.to_dict()) for entry in entries]


def with_last_entry(journal, edit):
    """``journal`` read back with its last entry's decoded fields passed
    through ``edit`` (a journal keeps lines: there is no entry to mutate)."""
    *head, last = journal.to_jsonl().splitlines()
    entry = json.loads(last)
    edit(entry)
    return Journal.from_jsonl("\n".join([*head, json.dumps(entry)]) + "\n")


def plain(value):
    """A ticket (or a field of one) as comparable plain values."""
    if isinstance(value, RateProfile):
        return value.segments
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


#: What a ticket view reads, field by field.
VIEW_FIELDS = (
    "rid", "seq", "client", "request", "allocation", "profile", "origin", "reject_reason",
    "cancelled_at", "aborted_at", "displaced_at", "edge_refused", "retry_after", "decided",
)  # fmt: skip


def observed(gateway):
    """State read off the objects themselves rather than through
    ``dump_state()``: fields neither ``snapshot()`` nor any later answer
    shows (a ticket's client, seq and wanted profile, read through its
    view; the counters)."""
    edge = gateway.edge
    rids = range(gateway.snapshot()["next_rid"])
    tickets = [gateway.get(rid) for rid in rids if gateway.tickets.has(rid)]
    return {
        "tickets": [tuple(plain(getattr(t, name)) for name in VIEW_FIELDS) for t in tickets],
        "holds_wiped": [b.holds_wiped for b in gateway.brokers],
        "channels": [vars(channel.stats) for channel in gateway.coordinator.channels],
        "edge": None if edge is None else (
            edge.refused, edge.admitted, {c: b.tokens for c, b in edge._buckets.items()},
        ),
    }  # fmt: skip


def assert_cut_equals_uninterrupted(config, ops, cut):
    times = list(accumulate(op[1] for op in ops))
    reference = Gateway(PLATFORM, journal=Journal(), **config)
    original = Gateway(PLATFORM, journal=Journal(), **config)
    for op, now in zip(ops[:cut], times[:cut]):
        assert apply(original, op, now) == apply(reference, op, now)
    at = times[cut - 1] if cut else 0.0
    reference.drain(at)
    original.drain(at)
    original.checkpoint()
    assert list(original.journal)[-1].op == "checkpoint"

    restored = Gateway.resume(Journal.from_jsonl(original.journal.to_jsonl()))
    assert restored.snapshot() == reference.snapshot()
    assert restored.dump_state() == reference.dump_state()
    assert observed(restored) == observed(reference)

    mark = len(reference.journal)
    for op, now in zip(ops[cut:], times[cut:]):
        assert apply(restored, op, now) == apply(reference, op, now), op
    assert lines(list(restored.journal)[mark + 1 :]) == lines(list(reference.journal)[mark:])
    assert restored.snapshot() == reference.snapshot()
    assert restored.dump_state() == reference.dump_state()
    assert observed(restored) == observed(reference)
    report = check_gateway(restored, journal=restored.journal)
    assert report.ok, report.violations
    assert report.checks["replayed"] == 2  # the replay, then the restore


@settings(max_examples=60, deadline=None)
@given(config=CONFIGS, ops=st.lists(OPS, max_size=40), data=st.data())
def test_a_checkpoint_cut_equals_an_uninterrupted_run(config, ops, data):
    cut = data.draw(st.integers(0, len(ops)), label="cut")
    assert_cut_equals_uninterrupted(config, ops, cut)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "config",
    [
        dict(num_shards=4, batch_size=8, chaos=STRANDING, backlog_limit=3),
        dict(num_shards=1, batch_size=1, edge=EdgeLimit(rate=40.0, burst=3000.0)),
        dict(num_shards=4, batch_size=8, malleable=True, backlog_limit=3),
    ],
    ids=["lossy-backlog", "edge", "malleable"],
)
def test_a_long_seeded_stream_cut_in_the_middle(config, seed):
    """The property on fixed, long streams, which exercise every state field:
    fault draws, edge refusals, re-admissions, and holds live at the cut,
    wiped by crashes and expired by the TTL sweep."""
    ops = seeded_ops(seed, 160)
    assert_cut_equals_uninterrupted(config, ops, 80)


def run_stream(gateway, ops, start=0.0):
    now = start
    for op in ops:
        now += op[1]
        apply(gateway, op, now)
    return now


def sweep_every_call(gateway):
    """Make ``gateway`` sweep every broker on every call, as the coordinator
    did before each broker kept its earliest live hold expiry: the reference."""
    brokers = gateway.coordinator.brokers
    gateway.coordinator.expire_holds = lambda now: sum(
        len(broker.expire_holds(now)) for broker in brokers
    )
    return gateway


def live_holds(gateway):
    return sum(len(broker.holds()) for broker in gateway.brokers)


class TestHoldSweepIsExact:
    """The coordinator sweeps a broker only once its earliest live hold is
    due; the holds expire on exactly the calls that sweeping on every call
    expires them."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stranding_streams_match_a_sweep_on_every_call(self, seed):
        config = dict(num_shards=4, batch_size=1, chaos=STRANDING, hold_ttl=20.0)
        gateway = Gateway(PLATFORM, journal=Journal(), **config)
        reference = sweep_every_call(Gateway(PLATFORM, journal=Journal(), **config))
        now, expired = 0.0, 0
        for op in seeded_ops(seed, 160):
            now += op[1]
            assert apply(gateway, op, now) == apply(reference, op, now), op
            assert gateway.stats.holds_expired == reference.stats.holds_expired
            assert gateway.snapshot() == reference.snapshot()
            expired = gateway.stats.holds_expired
        assert gateway.dump_state() == reference.dump_state()
        assert expired > 0  # not vacuous: the TTL sweep reclaimed holds

    def test_a_ttl_inside_float_noise_expires_at_its_grant_instant(self):
        """``hold_expired`` counts a deadline within ``seconds_eq`` noise of
        ``now``: a hold granted at 5.0 with a 1e-12 s TTL is reclaimed by the
        next call at 5.0, though the clock has not moved."""
        config = dict(num_shards=4, batch_size=1, chaos=STRANDING, hold_ttl=1e-12)
        gateway = Gateway(PLATFORM, **config)
        reference = sweep_every_call(Gateway(PLATFORM, **config))
        stranded = False
        for k in range(40):
            for plane in (gateway, reference):
                plane.submit(ingress=k % 4, egress=(k + 1) % 4, volume=50.0, deadline=90.0, now=5.0)
            stranded = stranded or live_holds(gateway) > 0
            assert live_holds(gateway) == live_holds(reference)
            assert gateway.stats.holds_expired == reference.stats.holds_expired
        assert stranded and gateway.stats.holds_expired > 0
        gateway.drain(5.0)
        assert live_holds(gateway) == 0

    def test_a_hold_placed_on_a_broker_is_swept_when_due(self):
        gateway = Gateway(PLATFORM, num_shards=2)
        broker = gateway.brokers[1]
        broker.prepare("egress", 1, ((0.0, 10.0, 5.0),), rid=99, expires=3.0 + 1e-12, key=(99, "e"))
        gateway.drain(2.0)
        assert live_holds(gateway) == 1
        gateway.drain(3.0)
        assert live_holds(gateway) == 0 and gateway.stats.holds_expired == 1

    def test_each_batch_reports_the_oldest_live_hold(self):
        """A flush's ``max_hold_age`` reads every broker that holds one, and
        only those can: a broker with no live hold has no ``due``."""
        telemetry = Telemetry()
        gateway = Gateway(
            PLATFORM, num_shards=4, batch_size=1, chaos=STRANDING, hold_ttl=30.0,
            telemetry=telemetry,
        )  # fmt: skip
        ages = []
        for k in range(40):
            now = float(k // 8)
            gateway.submit(ingress=k % 4, egress=(k + 1) % 4, volume=60.0, deadline=400.0, now=now)
            granted = [hold.expires - 30.0 for broker in gateway.brokers for hold in broker.holds()]
            ages.append(max((now - t for t in granted), default=0.0))
        reported = [e.fields["max_hold_age"] for e in telemetry.events if e.name == "gateway.batch"]
        assert reported == ages and max(ages) > 0

    def stranded(self, tmp_path=None):
        """A 4-shard lossy gateway left with live holds that expire at 30."""
        gateway = Gateway(
            PLATFORM, num_shards=4, batch_size=1, chaos=STRANDING, hold_ttl=30.0,
            journal=Journal(path=tmp_path / "wal.jsonl") if tmp_path else Journal(),
        )  # fmt: skip
        k = 0
        while live_holds(gateway) < 3:
            gateway.submit(ingress=k % 4, egress=(k + 1) % 4, volume=60.0, deadline=400.0, now=0.0)
            k += 1
        return gateway

    def test_the_first_call_after_a_resume_sweeps_restored_holds(self, tmp_path):
        gateway = self.stranded(tmp_path)
        held = live_holds(gateway)
        gateway.checkpoint()
        gateway.journal.close()
        restored = Gateway.resume(Journal.load(tmp_path / "wal.jsonl"))
        assert live_holds(restored) == held
        restored.drain(29.0)
        assert live_holds(restored) == held
        restored.drain(30.0)
        assert live_holds(restored) == 0
        assert restored.stats.holds_expired == gateway.stats.holds_expired + held

    def test_the_first_call_after_a_restart_sweeps_the_surviving_holds(self):
        gateway = self.stranded()
        reference = sweep_every_call(self.stranded())
        for plane in (gateway, reference):
            shard = next(k for k, broker in enumerate(plane.brokers) if broker.holds())
            plane.crash_broker(shard, now=1.0)
            plane.restart_broker(shard, now=2.0)
        survivors = live_holds(gateway)
        assert survivors == live_holds(reference) > 0
        gateway.drain(30.0)
        reference.drain(30.0)
        assert live_holds(gateway) == 0
        assert gateway.stats.holds_expired == reference.stats.holds_expired == survivors
        assert gateway.dump_state() == reference.dump_state()


class TestCheckpointVerb:
    def test_pending_submissions_refuse_a_checkpoint(self):
        gateway = Gateway(PLATFORM, batch_size=4, journal=Journal())
        gateway.submit(ingress=0, egress=1, volume=10.0, deadline=50.0, now=0.0)
        with pytest.raises(ConfigurationError, match="pending"):
            gateway.checkpoint()
        assert [entry.op for entry in gateway.journal] == ["submit"]

    def test_replay_ignores_checkpoints(self):
        gateway = Gateway(PLATFORM, num_shards=2, batch_size=4, journal=Journal())
        end = run_stream(gateway, seeded_ops(4, 60))
        gateway.drain(end)
        gateway.checkpoint()

        def skew(entry):  # a replay that read the checkpoint would see this
            entry["state"]["next_rid"] += 100

        journal = with_last_entry(gateway.journal, skew)
        assert Gateway.replay(journal).snapshot() == gateway.snapshot()
        assert Gateway.resume(journal).snapshot() != gateway.snapshot()

    def test_a_mismatched_header_is_refused(self):
        gateway = Gateway(PLATFORM, num_shards=2, journal=Journal())
        gateway.checkpoint()
        journal = Journal.from_jsonl(gateway.journal.to_jsonl())
        journal.header["num_shards"] = 1
        with pytest.raises(ConfigurationError, match="header"):
            Gateway.resume(journal)


class TestCheckGateway:
    def checkpointed(self):
        gateway = Gateway(PLATFORM, num_shards=2, batch_size=4, journal=Journal())
        gateway.drain(run_stream(gateway, seeded_ops(6, 80)))
        gateway.checkpoint()
        return gateway, Journal.from_jsonl(gateway.journal.to_jsonl())

    def test_a_clean_checkpoint_passes_both_rebuilds(self):
        gateway, journal = self.checkpointed()
        report = check_gateway(gateway, journal=journal)
        assert report.ok, report.violations
        assert report.checks["replayed"] == 2

    def test_one_nudged_port_value_is_flagged(self):
        gateway, journal = self.checkpointed()

        def nudge(entry):
            ports = entry["state"]["brokers"][0]["ports"]
            _, _, (usage, _) = max(ports, key=lambda p: len(unpack("d", p[2][0][0])))
            values = unpack("d", usage[1])
            k = next(i for i, v in enumerate(values) if v > 0.0)
            values[k] = math.nextafter(values[k], math.inf)  # one ulp
            usage[1] = pack(values)

        report = check_gateway(gateway, journal=with_last_entry(journal, nudge))
        assert report.violations == ["checkpoint restore diverges from the replay on: brokers"]


class TestTornAndStacked:
    def written(self, tmp_path, checkpoints):
        """A file-backed gateway: ``checkpoints`` rounds of a stream, a
        drain and a checkpoint; returns it, its path and each round's
        end-of-round snapshot."""
        path = tmp_path / "wal.jsonl"
        gateway = Gateway(PLATFORM, num_shards=2, batch_size=4, journal=Journal(path=path))
        snapshots, now = [], 0.0
        for round_ in range(checkpoints):
            now = run_stream(gateway, seeded_ops(10 + round_, 50), now)
            gateway.drain(now)
            snapshots.append(gateway.snapshot())
            gateway.checkpoint()
        return gateway, path, snapshots

    @pytest.fixture
    def replayed(self, monkeypatch):
        """How many entries each ``replay_ops`` call re-applied."""
        counts = []
        real = lifecycle.replay_ops

        def spy(plane, entries):
            entries = list(entries)
            counts.append(len(entries))
            real(plane, entries)

        monkeypatch.setattr(lifecycle, "replay_ops", spy)
        return counts

    def chop_last_line(self, path):
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[: start + (len(data) - start) // 2])

    def test_a_torn_checkpoint_falls_back_to_the_previous_one(self, tmp_path, replayed):
        gateway, path, snapshots = self.written(tmp_path, 2)
        gateway.journal.close()
        self.chop_last_line(path)
        journal = Journal.load(path)
        ops = [entry.op for entry in journal]
        assert ops[-1] == "drain" and ops.count("checkpoint") == 1
        resumed = Gateway.resume(journal)
        assert resumed.snapshot() == snapshots[-1]
        assert replayed == [len(ops) - ops.index("checkpoint") - 1]
        # The repaired file keeps appending, and replays to the same state.
        now = resumed.now
        resumed.submit(ingress=0, egress=1, volume=5.0, deadline=now + 90.0, now=now)
        resumed.journal.close()
        assert Gateway.replay(Journal.load(path)).snapshot() == resumed.snapshot()

    def test_a_lone_torn_checkpoint_falls_back_to_a_full_replay(self, tmp_path, replayed):
        gateway, path, snapshots = self.written(tmp_path, 1)
        gateway.journal.close()
        self.chop_last_line(path)
        journal = Journal.load(path)
        assert "checkpoint" not in {entry.op for entry in journal}
        assert Gateway.resume(journal).snapshot() == snapshots[-1]
        assert replayed == [len(journal)]

    def test_a_checkpoint_whose_write_fails_leaves_the_previous_one(
        self, tmp_path, monkeypatch
    ):
        gateway, path, snapshots = self.written(tmp_path, 1)
        journal = gateway.journal
        journal.close()
        mark = len(journal)
        real_open = Path.open

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.handle, name)

        monkeypatch.setattr(Path, "open", lambda self, *a, **k: FullDisk(real_open(self, *a, **k)))
        with pytest.raises(OSError):
            gateway.checkpoint()
        monkeypatch.undo()
        journal.close()
        assert len(journal) == mark and journal.has_checkpoint()
        checkpoint, tail = journal.last_checkpoint()
        assert checkpoint.op == "checkpoint" and tail == []
        assert Gateway.resume(journal).snapshot() == snapshots[-1]

    def test_checkpoint_then_ops_then_a_crash_restores_and_replays_the_tail(
        self, tmp_path, replayed
    ):
        gateway, path, _ = self.written(tmp_path, 2)
        mark = len(gateway.journal)
        now = run_stream(gateway, seeded_ops(30, 30), gateway.now)
        before = gateway.snapshot()
        # The process dies while writing one more submission: its line is cut.
        gateway.submit(ingress=1, egress=2, volume=40.0, deadline=now + 99.0, now=now)
        gateway.journal.close()
        self.chop_last_line(path)
        journal = Journal.load(path)
        resumed = Gateway.resume(journal)
        assert resumed.snapshot() == before
        assert replayed == [len(journal) - mark]
        report = check_gateway(resumed, journal=journal)
        assert report.ok, report.violations


class TestExplain:
    def test_a_checkpoint_changes_no_explain_text(self, tmp_path, capsys):
        telemetry = Telemetry()
        path = tmp_path / "wal.jsonl"
        gateway = Gateway(
            PLATFORM, num_shards=2, batch_size=4, journal=Journal(path=path), telemetry=telemetry
        )
        gateway.drain(run_stream(gateway, seeded_ops(7, 60)))
        artifact = RunTelemetry("checkpoint")
        artifact.capture("run", telemetry)
        artifact_path = tmp_path / "run.json"
        artifact.save(artifact_path)
        plain = tmp_path / "plain.jsonl"
        plain.write_bytes(path.read_bytes())
        gateway.checkpoint()
        gateway.journal.close()

        rids = range(gateway.snapshot()["next_rid"])
        for rid in rids:
            with_checkpoint = explain_request(artifact, rid, journal=Journal.load(path))
            assert with_checkpoint == explain_request(artifact, rid, journal=Journal.load(plain))
        rid = next(r.rid for r in gateway.reservations())
        outputs = []
        for journal in (plain, path):
            argv = ["explain", str(rid), str(artifact_path), "--journal", str(journal)]
            assert grid_obs(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "checkpoint" not in outputs[1] and "journal" in outputs[1]

    def test_serve_app_explain_is_the_same_across_its_drain(self, tmp_path):
        app = ServeApp(
            ServeConfig(
                platform=PLATFORM, num_shards=2, batch_size=4, slo_rules=(),
                journal_path=tmp_path / "wal.jsonl",
            ),  # fmt: skip
            clock=LogicalClock(),
        )
        for wave in range(4):
            app.gateway.submit_many(
                [
                    dict(ingress=k % 4, egress=(k + wave) % 4, volume=300.0, deadline=900.0)
                    for k in range(6)
                ],
                now=float(wave),
            )
        app.clock.advance(app.gateway.now)
        rids = [r.rid for r in app.gateway.reservations()]
        before = {rid: asyncio.run(app.explain(rid)) for rid in rids}
        asyncio.run(app.drain())
        assert list(app.journal)[-1].op == "checkpoint"
        assert {rid: asyncio.run(app.explain(rid)) for rid in rids} == before


class TestLazyLoad:
    """``Journal.load`` decodes only the header, ``Gateway.resume`` the
    last checkpoint and the lines after it; a full read decodes the whole
    file, each time."""

    @pytest.fixture
    def written(self, tmp_path):
        """A traced file-backed gateway: ops, a drain and a checkpoint,
        then more ops.  Returns it, its journal's path and the artifact."""
        telemetry = Telemetry()
        path = tmp_path / "wal.jsonl"
        gateway = Gateway(
            PLATFORM, num_shards=2, batch_size=4, journal=Journal(path=path), telemetry=telemetry
        )
        gateway.drain(run_stream(gateway, seeded_ops(21, 60)))
        gateway.checkpoint()
        gateway.drain(run_stream(gateway, seeded_ops(22, 30), gateway.now))
        gateway.journal.close()
        artifact = RunTelemetry("lazy")
        artifact.capture("run", telemetry)
        return gateway, path, artifact

    @pytest.fixture
    def decoded(self, monkeypatch):
        """How many journal lines have been decoded into entries."""
        count = [0]
        real = JournalEntry.from_dict.__func__

        def spy(cls, data):
            count[0] += 1
            return real(cls, data)

        monkeypatch.setattr(JournalEntry, "from_dict", classmethod(spy))
        return count

    @staticmethod
    def eager(path):
        """The file's text read into memory, every line decoded once."""
        return Journal.from_jsonl(path.read_text())

    def test_load_and_resume_decode_only_the_checkpoint_and_its_tail(self, written, decoded):
        gateway, path, _ = written
        text = path.read_text().splitlines()
        at = max(k for k, line in enumerate(text) if '"op": "checkpoint"' in line)
        journal = Journal.load(path)
        assert decoded == [0] and len(journal) == len(text) - 1
        resumed = Gateway.resume(journal)
        assert resumed.snapshot() == gateway.snapshot()
        assert decoded == [len(text) - at]
        now = resumed.now
        resumed.submit(ingress=0, egress=1, volume=5.0, deadline=now + 90.0, now=now)
        assert decoded == [len(text) - at] and len(journal) == len(text)
        assert journal.to_jsonl() == path.read_text()  # a full read re-reads the file ...
        assert decoded == [len(text) - at + len(text)]
        assert lines(journal) == lines(self.eager(path))
        # ... every time: once more here, and the in-memory copy's lines
        # twice (decoded to check them, then read).
        assert decoded == [len(text) - at + 4 * len(text)]

    def test_explain_text_is_that_of_an_eagerly_loaded_journal(self, written):
        gateway, path, artifact = written
        for rid in range(gateway.snapshot()["next_rid"]):
            story = explain_request(artifact, rid, journal=Journal.load(path))
            assert story == explain_request(artifact, rid, journal=self.eager(path))

    @pytest.mark.parametrize("where", ["checkpoint", "tail"])
    def test_a_corrupt_line_from_the_checkpoint_on_is_named_by_resume(
        self, written, tmp_path, where
    ):
        """``last_checkpoint`` reads the file from the checkpoint's offset,
        and still names a line that does not decode by its number in the file."""
        gateway, path, _ = written
        text = path.read_text().splitlines()
        at = max(n for n, line in enumerate(text) if '"op": "checkpoint"' in line)
        k = 1 + (at if where == "checkpoint" else at + 2)
        text[k - 1] = text[k - 1][:-7]
        path.write_text("\n".join(text) + "\n")
        journal = Journal.load(path)
        assert journal.has_checkpoint() and len(journal) == len(text) - 1
        with pytest.raises(ConfigurationError, match=f"line {k}:"):
            Gateway.resume(journal)

    def test_a_corrupt_line_before_the_checkpoint_raises_at_the_first_full_read(
        self, written, tmp_path, capsys
    ):
        gateway, path, artifact = written
        text = path.read_text().splitlines()
        k = 1 + next(n for n, line in enumerate(text) if '"op": "submit"' in line)
        text[k - 1] = text[k - 1][:-7]  # file line k no longer decodes
        path.write_text("\n".join(text) + "\n")
        journal = Journal.load(path)
        assert len(journal) == len(text) - 1
        resumed = Gateway.resume(journal)
        assert resumed.snapshot() == gateway.snapshot()
        named = f"line {k}:"
        with pytest.raises(ConfigurationError, match=named):
            Gateway.replay(journal)
        with pytest.raises(ConfigurationError, match=named):
            check_gateway(resumed, journal=journal)
        with pytest.raises(ConfigurationError, match=named):
            list(journal)  # and again: nothing was half-decoded
        artifact_path = tmp_path / "run.json"
        artifact.save(artifact_path)
        argv = ["explain", "0", str(artifact_path), "--journal", str(path)]
        assert grid_obs(argv) == 2
        assert named in capsys.readouterr().err


def test_a_checkpoint_of_nested_ticket_rows_still_restores(tmp_path):
    """A checkpoint written while ticket rows nested the request and the
    allocation as lists (committed: 30 tickets of a malleable, edge-limited
    2-shard gateway) restores to what a full replay rebuilds, and the
    restored gateway writes packed columns, which hold every ticket."""
    path = tmp_path / "wal.jsonl"
    shutil.copy(DATA / "checkpoint_nested_rows.jsonl", path)
    state = json.loads(path.read_text().splitlines()[-1])["state"]
    rows = state["tickets"]
    assert all(len(row) == 14 and len(row[3]) == 7 for row in rows)
    assert sum(row[4] is None for row in rows) == 20  # rejected, edge refusals among them
    assert sum(row[4] is not None and row[4][6] is not None for row in rows) == 3  # shaped
    assert sum(row[10] for row in rows) == 3 and sum(row[5] is not None for row in rows) == 1
    journal = Journal.load(path)
    resumed, replayed = Gateway.resume(journal), Gateway.replay(journal)
    assert resumed.dump_state() == replayed.dump_state()
    assert resumed.snapshot() == replayed.snapshot()
    tickets = resumed.dump_state()["tickets"]
    assert tickets["rows"] == rows[-1][0] + 1
    assert all(isinstance(packed, str) for packed in tickets["columns"].values())
    table = TicketTable.from_state(tickets)
    assert [len(table.row(row[0])) for row in rows] == [22] * len(rows)


def test_a_checkpoint_of_flat_ticket_rows_still_restores(tmp_path):
    """A checkpoint written while tickets were flat 22-field rows and port
    runs plain lists (committed: a malleable, edge-limited 2-shard
    gateway with a backlog, checkpointed mid-journal by the build before
    checkpoints held columns) restores, with its tail, to what a full
    replay rebuilds."""
    path = tmp_path / "wal.jsonl"
    shutil.copy(DATA / "checkpoint_flat_rows.jsonl", path)
    entries = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    at = next(k for k, entry in enumerate(entries) if entry["op"] == "checkpoint")
    state = entries[at]["state"]
    rows = state["tickets"]
    assert at < len(entries) - 1 and {len(row) for row in rows} == {22}
    assert sum(row[12] is not None for row in rows) == 3  # granted shapes, a reshape's among them
    assert sum(row[20] is not None for row in rows) == 1  # a wanted shape
    assert [sum(row[k] is not None for row in rows) for k in (13, 14, 15)] == [1, 1, 1]
    assert [row[19] for row in rows if row[18]] == [300.0, math.inf]  # edge refusals' hints
    assert {2, 3} <= set(range(state["next_rid"])) - {row[0] for row in rows}  # burned
    assert {row[2] for row in rows} == {"a", "b", "c", "d", "default", "été"}
    ports = [port for broker in state["brokers"] for port in broker["ports"]]
    assert sum(runs[1] is not None for _, _, runs in ports) == 1  # a degraded port
    assert all(isinstance(runs[0][0], list) for _, _, runs in ports)
    journal = Journal.load(path)
    resumed, replayed = Gateway.resume(journal), Gateway.replay(journal)
    assert resumed.dump_state() == replayed.dump_state()
    assert resumed.snapshot() == replayed.snapshot()
    report = check_gateway(resumed, journal=journal)
    assert report.ok, report.violations


class TestStateOut:
    @pytest.mark.parametrize("kernel", [make_profile, VectorProfile], ids=["breakpoint", "vector"])
    def test_profile_runs_round_trip_exactly(self, kernel):
        rng = random.Random(8)
        profile = kernel()
        for _ in range(200):
            t0 = rng.uniform(0.0, 500.0)
            profile.add(t0, t0 + rng.uniform(0.1, 80.0), rng.uniform(-5.0, 30.0) / 3.0)
        points, values = json.loads(json.dumps(profile.runs()))
        restored = kernel()
        restored.load_runs(points, values)
        assert restored.runs() == profile.runs()
        assert list(restored.segments()) == list(profile.segments())
        assert restored.global_max() == profile.global_max()
        with pytest.raises(ValueError, match="run values"):
            restored.load_runs(points, values[:-1])
        with pytest.raises(ValueError, match="ascend"):
            restored.load_runs(points[::-1], values)
        with pytest.raises(ValueError, match="neighbouring runs"):
            restored.load_runs([1.0, 2.0], [0.0, 5.0, 5.0])

    def test_a_port_restores_usage_and_reductions(self):
        port = Port(100.0)
        port.add(((0.0, 10.0, 30.0), (10.0, 25.5, 12.25)))
        port.degrade(3.0, 7.0, 60.0)
        twin = Port(100.0)
        twin.load_state(json.loads(json.dumps(port.dump_state())))
        assert twin.dump_state() == port.dump_state()
        assert twin.free_capacity(0.0, 30.0) == port.free_capacity(0.0, 30.0)
        twin.load_state(Port(100.0).dump_state())
        assert twin.reductions is None and twin.usage.is_zero()
