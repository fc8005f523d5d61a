"""Tests for the operation journal and crash-recovery replay."""

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, InvalidRequestError, Platform
from repro.gateway import EdgeLimit, Gateway, Journal, JournalEntry, lifecycle
from repro.gateway.journal import JOURNAL_FORMAT, _encode
from repro.serve import LogicalClock, ServeApp, ServeConfig
from repro.serve.http import HttpRequest
from repro.schedulers import FractionOfMaxPolicy

DATA = Path(__file__).parent / "data"


@pytest.fixture
def platform():
    return Platform.uniform(2, 2, 100.0)


class TestJournalEntry:
    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            JournalEntry(op="frobnicate", now=0.0, args={})

    def test_round_trip_dict(self):
        entry = JournalEntry(op="cancel", now=3.5, args={"rid": 7})
        again = JournalEntry.from_dict(entry.to_dict())
        assert again.op == "cancel"
        assert again.now == 3.5
        assert dict(again.args) == {"rid": 7}


class TestSerialisation:
    def test_header_bytes_are_pinned(self):
        """The header a journal starts with, byte for byte as written when
        ``Platform`` kept its capacities in numpy arrays."""
        journal = Journal()
        Gateway(
            Platform([1250.0, 625.0, 0.1, 1e-3], [3.0, 1e9 / 7]),
            num_shards=2,
            batch_size=4,
            edge=EdgeLimit(rate=10.0, burst=20.0),
            journal=journal,
        )
        assert journal.to_jsonl() == (
            '{"format": "repro-journal/2", "kind": "gateway", "platform": '
            '{"ingress_capacity": [1250.0, 625.0, 0.1, 0.001], '
            '"egress_capacity": [3.0, 142857142.85714287]}, "num_shards": 2, '
            '"batch_size": 4, "ordering": "fifo", "policy": "min-bw", "hold_ttl": 300.0, '
            '"backoff": {"base": 5.0, "multiplier": 2.0, "max_attempts": 3, "jitter": 0.0}, '
            '"edge": {"rate": 10.0, "burst": 20.0}, "chaos": null, "rpc_deadline": null, '
            '"backlog_limit": 0}\n'
        )

    def test_jsonl_round_trip(self, platform):
        journal = Journal()
        Gateway(platform, journal=journal).submit(
            ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0
        )
        text = journal.to_jsonl()
        again = Journal.from_jsonl(text)
        assert again.header == journal.header
        assert len(again) == 1
        assert next(iter(again)).op == "submit"

    def test_header_first_line_has_format_tag(self, platform):
        journal = Journal()
        Gateway(platform, journal=journal)
        first = json.loads(journal.to_jsonl().splitlines()[0])
        assert first["format"] == JOURNAL_FORMAT
        assert first["platform"] == platform.to_dict()

    def test_rejects_foreign_format(self):
        with pytest.raises(ConfigurationError):
            Journal.from_jsonl('{"format": "something-else/9"}\n')

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Journal.from_jsonl("")

    def test_file_backed_appends(self, platform, tmp_path):
        path = tmp_path / "ops.jsonl"
        journal = Journal(path=path)
        service = Gateway(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        service.cancel(0, now=1.0)
        # every append hit the disk immediately: load without a save() call
        loaded = Journal.load(path)
        assert [e.op for e in loaded] == ["submit", "cancel"]
        assert loaded.header == journal.header

    def test_every_append_is_on_disk_when_it_returns(self, tmp_path):
        """Write-ahead with one kept-open handle: a fresh reader (and the
        file's size) sees entry N right after append N, before any close."""
        path = tmp_path / "live.jsonl"
        journal = Journal(path=path)
        journal.set_header({"kind": "gateway"})
        sizes = [path.stat().st_size]
        for k in range(25):
            journal.append("cancel", float(k), rid=k)
            loaded = Journal.load(path)
            assert [e.args["rid"] for e in loaded] == list(range(k + 1))
            sizes.append(path.stat().st_size)
        assert sizes == sorted(set(sizes))  # grew with every single append
        assert path.read_text() == journal.to_jsonl()
        journal.close()

    def test_appends_share_one_open(self, tmp_path, monkeypatch):
        from pathlib import Path

        opened = []
        real_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            opened.append(mode)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        journal = Journal(path=tmp_path / "one.jsonl")
        journal.set_header({"kind": "gateway"})
        for k in range(50):
            journal.append("cancel", float(k), rid=k)
        assert opened == ["w", "a"]  # the header rewrite, then one append handle
        journal.close()
        journal.close()  # idempotent
        journal.append("cancel", 50.0, rid=50)
        assert opened == ["w", "a", "a"]  # append after close() reopens
        journal.close()
        assert len(Journal.load(journal.path)) == 51

    def test_a_header_rewrite_keeps_finding_the_checkpoint(self, tmp_path):
        """A header set late rewrites the lines: the last checkpoint's line
        moves in the file, and ``last_checkpoint`` still reads it."""
        journal = Journal(path=tmp_path / "moved.jsonl")
        journal.set_header({"kind": "gateway"})
        journal.append("cancel", 0.0, rid=0)
        journal.append("checkpoint", 1.0, state={"k": 1})
        journal.append("cancel", 2.0, rid=1)
        for reader in (journal, Journal.load(journal.path)):
            reader.set_header({"kind": "gateway", "a much longer header": True})
            checkpoint, tail = reader.last_checkpoint()
            assert checkpoint.args["state"] == {"k": 1}
            assert [entry.args["rid"] for entry in tail] == [1]
            reader.close()

    def test_header_rewrite_and_load_keep_appending(self, tmp_path):
        path = tmp_path / "rewrite.jsonl"
        journal = Journal(path=path)
        journal.set_header({"kind": "gateway"})
        journal.append("cancel", 0.0, rid=0)
        # A header set late rewrites the file under the open handle ...
        journal.set_header({"kind": "gateway", "late": True})
        journal.append("cancel", 1.0, rid=1)
        assert path.read_text() == journal.to_jsonl()
        journal.close()
        # ... and a loaded journal goes on appending to the same file.
        loaded = Journal.load(path)
        loaded.append("cancel", 2.0, rid=2)
        reread = Journal.load(path)
        assert [e.args["rid"] for e in reread] == [0, 1, 2]
        assert reread.header["late"] is True
        loaded.append("cancel", 3.0, rid=3)
        loaded.close()
        assert len(Journal.load(path)) == 4

    def test_save_load_round_trip(self, platform, tmp_path):
        journal = Journal()
        service = Gateway(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        path = tmp_path / "saved.jsonl"
        path.write_text(journal.to_jsonl())
        assert Journal.load(path).to_jsonl() == journal.to_jsonl()


class TestTornTail:
    """A write cut short mid-line (full disk, machine crash) must not make
    the journal — and with it the service — unrestartable."""

    SUBMITS = [
        dict(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0),
        dict(ingress=1, egress=0, volume=200.0, deadline=60.0, now=1.0),
        dict(ingress=1, egress=1, volume=300.0, deadline=70.0, now=2.0),
    ]
    LATER = dict(ingress=0, egress=0, volume=400.0, deadline=80.0, now=3.0)

    def written(self, platform, path):
        gateway = Gateway(platform, journal=Journal(path=path))
        for submit in self.SUBMITS:
            gateway.submit(**submit)
        gateway.journal.close()

    @pytest.mark.parametrize("chop, survive", [(20, 2), (1, 3)])
    def test_resume_after_a_cut_write(self, platform, tmp_path, chop, survive):
        """20 bytes short: the last op is torn, was never applied, and goes.
        One byte short: it lacks only its newline, and stays."""
        path = tmp_path / "wal.jsonl"
        self.written(platform, path)
        path.write_bytes(path.read_bytes()[:-chop])
        journal = Journal.load(path)
        assert len(journal) == survive
        resumed = Gateway.resume(journal)
        resumed.submit(**self.LATER)
        journal.close()
        reloaded = Journal.load(path)  # the new entry got a line of its own
        assert reloaded.to_jsonl() == path.read_text() == journal.to_jsonl()
        never_torn = Gateway(platform)
        for submit in [*self.SUBMITS[:survive], self.LATER]:
            never_torn.submit(**submit)
        successor = Gateway.replay(reloaded)
        assert successor.snapshot() == resumed.snapshot() == never_torn.snapshot()

    def test_torn_text_drops_only_an_undecodable_unterminated_tail(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.written(platform, path)
        text = path.read_text()
        assert len(Journal.from_jsonl(text[:-20])) == 2
        assert len(Journal.from_jsonl(text[:-1])) == 3

    def test_garbage_anywhere_else_still_raises(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.written(platform, path)
        lines = path.read_text().splitlines()
        mid_file = "\n".join([lines[0], lines[1][:-20], *lines[2:]]) + "\n"
        complete_last_line = "\n".join([*lines[:-1], lines[-1][:-20]]) + "\n"
        for text in (mid_file, mid_file[:-30], complete_last_line):
            with pytest.raises(json.JSONDecodeError):
                Journal.from_jsonl(text)


def wave(k, size=6):
    """Submission ``k`` of a seeded-looking wave on a 4×4 platform."""
    return [
        dict(ingress=(k + j) % 4, egress=(3 * k + j) % 4, volume=50.0 + 7 * j, deadline=90.0 + k)
        for j in range(size)
    ]


def waved(path, waves, **kwargs):
    """A 2-shard, batch-4 gateway on a file journal fed ``waves`` through
    ``submit_many``, one instant each."""
    gateway = Gateway(
        Platform.uniform(4, 4, 100.0), num_shards=2, batch_size=4, journal=Journal(path=path)
    )
    for k in range(waves):
        gateway.submit_many(wave(k), now=float(k), **kwargs)
    return gateway


class TestGroupCommit:
    """A wave's entries go out as one ``write`` + ``flush()``, before the
    wave is answered; the file is what per-entry appends write."""

    def test_a_wave_is_one_write_of_the_per_entry_bytes(self, tmp_path, monkeypatch):
        writes = []
        emit = Journal._emit

        def counted(self, lines):
            writes.append(len(lines))
            emit(self, lines)

        monkeypatch.setattr(Journal, "_emit", counted)
        grouped = waved(tmp_path / "grouped.jsonl", 5)
        # each wave: 6 submits and its drain, in one write
        assert writes == [7] * 5
        one_by_one = Gateway(
            Platform.uniform(4, 4, 100.0),
            num_shards=2,
            batch_size=4,
            journal=Journal(path=tmp_path / "single.jsonl"),
        )
        for k in range(5):
            for fields in wave(k):
                one_by_one.submit(**fields, now=float(k))
            one_by_one.drain(float(k))
        assert writes[5:] == [1] * 35  # outside a wave: one write per entry
        assert (tmp_path / "grouped.jsonl").read_bytes() == (tmp_path / "single.jsonl").read_bytes()
        assert grouped.snapshot() == one_by_one.snapshot()

    def test_a_malformed_entry_fails_alone_and_its_wave_is_one_write(self, tmp_path, monkeypatch):
        """A deadline before ``now`` in mid-wave: that slot holds the
        ``InvalidRequestError``, the other entries are decided at the one
        instant, and the file receives the wave as one write, the bytes of
        the same wave without it."""
        writes = []
        emit = Journal._emit

        def counted(self, lines):
            writes.append(len(lines))
            emit(self, lines)

        monkeypatch.setattr(Journal, "_emit", counted)
        good = wave(2)
        results = waved(tmp_path / "mixed.jsonl", 0).submit_many(
            [*good[:3], dict(good[3], deadline=1.0), *good[3:]], now=2.0
        )
        assert isinstance(results.pop(3), InvalidRequestError)
        assert all(ticket.decided and ticket.request.t_start == 2.0 for ticket in results)
        assert writes == [len(good) + 1]  # its submits and its drain
        waved(tmp_path / "good.jsonl", 0).submit_many(good, now=2.0)
        assert (tmp_path / "mixed.jsonl").read_bytes() == (tmp_path / "good.jsonl").read_bytes()

    def test_a_read_during_a_wave_sees_every_line_so_far(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = Journal(path=path)
        journal.set_header({"kind": "gateway"})
        with journal.group():
            for k in range(3):
                journal.append("cancel", float(k), rid=k)
            assert len(journal) == 3
            assert len(Journal.load(path)) == 0  # not written yet ...
            assert [e.args["rid"] for e in journal] == [0, 1, 2]  # ... until read
            assert len(Journal.load(path)) == 3
            journal.append("cancel", 3.0, rid=3)
            journal.append("checkpoint", 3.0, state={})  # a checkpoint is written at once
            assert len(Journal.load(path)) == 5 and journal.has_checkpoint()
            journal.append("cancel", 4.0, rid=4)
        assert [e.args.get("rid") for e in Journal.load(path)] == [0, 1, 2, 3, None, 4]
        assert path.read_text() == journal.to_jsonl()
        journal.close()

    @pytest.mark.parametrize("whole, survived", [(0, 21), (0, 20), (1, 19)])
    def test_a_torn_group_write_is_repaired(self, tmp_path, whole, survived):
        """A group write cut short keeps its complete lines and drops the
        torn one (none of the wave was answered); the next append repairs
        the file and a resume decides as a replay does.  Cut: one byte
        (the last newline), or into the last or the last-but-one line."""
        path = tmp_path / "wal.jsonl"
        waved(path, 3).journal.close()
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        chop = 1 if survived == 21 else sum(len(line) for line in lines[len(lines) - whole :]) + 20
        path.write_bytes(data[:-chop])
        journal = Journal.load(path)
        assert len(journal) == survived
        resumed = Gateway.resume(journal)
        resumed.submit_many(wave(3), now=3.0)
        journal.close()
        reloaded = Journal.load(path)
        assert len(reloaded) == survived + 7
        assert reloaded.to_jsonl() == path.read_text()
        assert Gateway.replay(reloaded).snapshot() == resumed.snapshot()

    def test_a_process_killed_between_a_wave_write_and_its_answers(self, tmp_path):
        """``kill -9`` right after the third wave's group write: the wave
        is in the file though nobody was answered, and both restart paths
        rebuild the book the dead process held."""
        path = tmp_path / "wal.jsonl"
        child = f"""
import os, signal, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from repro.gateway import Journal
from test_journal import waved
emit = Journal._emit
def dying_emit(self, lines):
    emit(self, lines)
    if len(self) == 21:
        os.kill(os.getpid(), signal.SIGKILL)
Journal._emit = dying_emit
waved({str(path)!r}, 5)
"""
        src = str(Path(__file__).parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == -signal.SIGKILL
        held = waved(tmp_path / "alive.jsonl", 3).snapshot()
        assert Gateway.resume(Journal.load(path)).snapshot() == held
        assert Gateway.replay(Journal.load(path)).snapshot() == held


#: Floats the encoder writes in every shape ``repr`` has: signed zero,
#: subnormals, the last fixed-point values before ``repr`` switches to an
#: exponent (below 1e-4, at 1e16) and their neighbours.
EDGE_FLOATS = [
    -0.0, 0.0, 1e16, 1e-5, 1e-7, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, 1e-3,
    9999999999999998.0, 1.7976931348623157e308, 0.1, 1 / 3, 123456.789,
    *(math.nextafter(x, toward) for x in (1e-4, 1e16) for toward in (0.0, math.inf)),
]  # fmt: skip
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-6, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17),
)
#: Client names with what JSON escapes: quotes, backslashes, control
#: characters, non-ASCII text and astral characters (surrogate pairs).
CLIENTS = st.one_of(
    st.sampled_from(["default", 'a"b', "a\\b", "tab\there", "\x00\x1f\x7f", "é", "名前", "\U0001f600"]),
    st.text(max_size=12),
)


def submit_args(rid, client, ingress, egress, volume, deadline, max_rate, origin):
    """A ``submit`` entry's keywords, in the order ``Gateway.submit`` passes them."""
    return dict(
        rid=rid, client=client, ingress=ingress, egress=egress, volume=volume,
        deadline=deadline, max_rate=max_rate, origin=origin,
    )  # fmt: skip


class TestSubmitTemplate:
    """``submit`` lines are rendered from a template; every byte is what
    ``json.dumps`` writes for the same entry, and whatever the template
    cannot render exactly goes to the encoder."""

    @settings(max_examples=400, deadline=None)
    @given(
        now=FLOATS, volume=FLOATS, deadline=FLOATS, max_rate=FLOATS, client=CLIENTS,
        rid=st.integers(0, 2**70), ports=st.tuples(st.integers(0, 999), st.integers(0, 999)),
        origin=st.one_of(st.none(), st.integers(0, 2**40)),
    )  # fmt: skip
    def test_a_rendered_line_is_json_dumps(
        self, now, volume, deadline, max_rate, client, rid, ports, origin
    ):
        args = submit_args(rid, client, *ports, volume, deadline, max_rate, origin)
        line = Journal()._submit_line(now, args)
        assert line == json.dumps({"op": "submit", "now": now, **args}) + "\n"
        assert line == _encode({"op": "submit", "now": now, **args}) + "\n"

    @pytest.mark.parametrize(
        "change",
        [
            dict(volume=math.inf), dict(deadline=-math.inf), dict(max_rate=math.nan),
            dict(volume=2), dict(ingress=1.0), dict(egress=True), dict(rid=7.0),
            dict(origin=False), dict(client=None), dict(profile=[[0.0, 1.0, 2.5]]),
        ],
        ids=repr,
    )  # fmt: skip
    def test_what_the_template_cannot_render_goes_to_the_encoder(self, tmp_path, change):
        args = {**submit_args(3, "c", 0, 1, 2.5, 7.0, 5.0, None), **change}
        assert Journal()._submit_line(1.0, args) is None
        path = tmp_path / "wal.jsonl"
        journal = Journal({"format": JOURNAL_FORMAT}, path=path)
        journal.append("submit", 1.0, **args)
        journal.close()
        body = path.read_text().splitlines()[-1]
        assert body == json.dumps({"op": "submit", "now": 1.0, **args})

    def test_a_non_float_instant_goes_to_the_encoder(self):
        args = submit_args(3, "c", 0, 1, 2.5, 7.0, 5.0, None)
        assert Journal()._submit_line(1, args) is None
        reordered = dict(reversed(args.items()))
        assert Journal()._submit_line(1.0, reordered) is None

    def test_a_served_wave_writes_the_file_the_encoder_writes(self, tmp_path, monkeypatch):
        """The same batch POSTs, and one gateway wave with odd client names
        and a profile, written once with the template and once with
        ``json.dumps`` per entry: equal files."""

        def write(path):
            app = ServeApp(
                ServeConfig(
                    platform=Platform.uniform(4, 4, 100.0), num_shards=2, batch_size=4,
                    slo_rules=(), journal_path=path,
                ),
                clock=LogicalClock(),
            )  # fmt: skip

            async def drive():
                for k in range(6):
                    submissions = [
                        {**entry, "at": float(k), **({"max_rate": 30.0} if k % 2 else {})}
                        for entry in wave(k)
                    ]
                    raw = json.dumps({"submissions": submissions}).encode()
                    request = HttpRequest("POST", "/v1/reservations/batch", {}, {}, raw)
                    assert (await app.dispatch(request)).status == 200

            asyncio.run(drive())
            odd = ['q"uote', "back\\slash", "\x07bell", "naïve", "名前"]
            app.gateway.submit_many(
                [
                    dict(entry, client=name, origin=None if j % 2 else 1)
                    for j, (entry, name) in enumerate(zip(wave(9), odd))
                ]
                + [dict(wave(9)[0], profile=[[9.0, 10.0, wave(9)[0]["volume"]]])],
                now=9.0,
            )
            app.journal.close()
            return path.read_text()

        rendered = []
        template = Journal._submit_line

        def spy(self, now, args):
            line = template(self, now, args)
            rendered.append(line is not None)
            return line

        monkeypatch.setattr(Journal, "_submit_line", spy)
        templated = write(tmp_path / "templated.jsonl")
        assert rendered.count(True) > 30 and rendered.count(False) == 1  # the profile
        monkeypatch.setattr(Journal, "_submit_line", lambda self, now, args: None)
        encoded = write(tmp_path / "encoded.jsonl")
        assert templated == encoded
        lines = templated.splitlines()
        assert len(lines) > 40
        assert lines == [json.dumps(json.loads(line)) for line in lines]


class TestReplay:
    def test_replay_requires_header(self):
        with pytest.raises(ConfigurationError):
            Gateway.replay(Journal())

    def test_replay_rebuilds_identical_state(self, platform):
        journal = Journal()
        service = Gateway(
            platform,
            policy=FractionOfMaxPolicy(0.5),
            backlog_limit=4,
            journal=journal,
        )
        service.submit(ingress=0, egress=0, volume=20_000.0, deadline=500.0, now=0.0)
        service.submit(ingress=0, egress=0, volume=10_000.0, deadline=120.0, now=1.0)
        service.abort(0, now=10.0)
        service.degrade(side="egress", port=0, amount=100.0, start=20.0, end=40.0, now=20.0)
        service.cancel(1, now=25.0) if service.get(1).confirmed else None

        rebuilt = Gateway.replay(journal)
        assert rebuilt.snapshot() == service.snapshot()
        assert rebuilt.policy.name == service.policy.name
        assert rebuilt.backlog_limit == 4

    def test_replay_from_disk_after_crash(self, platform, tmp_path):
        path = tmp_path / "wal.jsonl"
        service = Gateway(platform, backlog_limit=2, journal=Journal(path=path))
        service.submit(ingress=0, egress=1, volume=5000.0, deadline=100.0, now=0.0)
        service.submit(ingress=1, egress=0, volume=3000.0, deadline=80.0, now=5.0)
        service.abort(0, now=10.0)
        before = service.snapshot()
        del service  # "crash"
        rebuilt = Gateway.replay(Journal.load(path))
        assert rebuilt.snapshot() == before


# ----------------------------------------------------------------------
# One lifecycle protocol at any shard and batch count: validate → settle → journal →
# apply.  A call that raises on its arguments changes nothing; everything
# else replays snapshot-equal — checked after every single call.
# ----------------------------------------------------------------------
ARGUMENT_ERRORS = (KeyError, InvalidRequestError, ConfigurationError)

PLANES = {
    "gateway-s1b1": lambda platform, **kw: Gateway(
        platform, num_shards=1, batch_size=1, journal=Journal(), **kw
    ),
    "gateway-s4b4": lambda platform, **kw: Gateway(
        platform, num_shards=4, batch_size=4, journal=Journal(), **kw
    ),
}


@pytest.fixture(params=sorted(PLANES))
def make_plane(request):
    return PLANES[request.param]


def assert_replays(plane):
    rebuilt = type(plane).replay(plane.journal)
    assert rebuilt.snapshot() == plane.snapshot()


def assert_refused(plane, call, errors=ARGUMENT_ERRORS):
    """``call`` raises on its arguments and leaves the plane untouched."""
    before, entries = plane.snapshot(), len(plane.journal)
    with pytest.raises(errors):
        call()
    assert plane.snapshot() == before
    assert len(plane.journal) == entries
    assert_replays(plane)


def half_open(make_plane):
    """A plane with two decided-or-pending submissions at t=0 (on the
    4-shard gateway: a half-full batch still open)."""
    plane = make_plane(Platform.uniform(4, 4, 100.0), backlog_limit=4)
    for ingress in (0, 1):
        plane.submit(ingress=ingress, egress=2, volume=500.0, deadline=50.0, now=0.0)
    return plane


def test_replay_rebuilds_the_very_policy(make_plane):
    """``f = 1/3`` has no exact six-digit spelling; the header must still name
    this very ``f``, or replay re-decides history at 33.3333 MB/s."""
    plane = make_plane(Platform.uniform(4, 4, 100.0), policy=FractionOfMaxPolicy(1 / 3))
    for ingress in range(4):  # four fill the 4-shard gateway's batch: all decided
        plane.submit(ingress=ingress, egress=1, volume=100.0, deadline=90.0, now=0.0)
    assert plane.snapshot()["reservations"][0]["allocation"]["bw"] == (1 / 3) * 100.0
    assert_replays(plane)


class TestOneLifecycleProtocol:
    def test_malformed_submit_burns_no_rid(self, make_plane):
        plane = half_open(make_plane)
        assert_refused(
            plane,
            lambda: plane.submit(ingress=0, egress=1, volume=-5.0, deadline=90.0, now=3.0),
        )
        after = plane.submit(ingress=0, egress=1, volume=100.0, deadline=90.0, now=4.0)
        assert after.rid == 2
        assert_replays(plane)

    def test_abort_of_a_completed_reservation_is_journaled(self, make_plane):
        plane = make_plane(Platform.uniform(4, 4, 100.0))
        done = plane.submit(ingress=0, egress=1, volume=100.0, deadline=10.0, now=0.0)
        assert plane.abort(done.rid, now=500.0) is False
        assert plane.now == 500.0
        assert list(plane.journal)[-1].op == "abort"
        assert_replays(plane)

    @pytest.mark.parametrize("verb", ["cancel", "abort", "reshape"])
    def test_unknown_rid_changes_nothing(self, make_plane, verb):
        plane = half_open(make_plane)
        assert_refused(plane, lambda: getattr(plane, verb)(999_999, now=5.0), KeyError)

    def test_unknown_origin_changes_nothing(self, make_plane):
        plane = half_open(make_plane)
        assert_refused(
            plane,
            lambda: plane.submit(
                ingress=0, egress=1, volume=10.0, deadline=90.0, now=5.0, origin=999_999
            ),
            KeyError,
        )

    def test_bad_side_or_port_degrade_changes_nothing(self, make_plane):
        plane = half_open(make_plane)
        for side, port in (("sideways", 0), ("ingress", 99), ("egress", -1)):
            assert_refused(
                plane,
                lambda side=side, port=port: plane.degrade(
                    side=side, port=port, amount=10.0, start=6.0, end=9.0, now=5.0
                ),
                ConfigurationError,
            )

    def test_unreachable_deadline_changes_nothing(self, make_plane):
        plane = half_open(make_plane)
        assert_refused(
            plane,
            lambda: plane.submit(ingress=0, egress=1, volume=1e6, deadline=6.0, now=5.0),
            InvalidRequestError,
        )

    def test_unknown_port_submit_changes_nothing(self, make_plane):
        plane = half_open(make_plane)
        for ingress, egress in ((4, 0), (0, -1)):
            assert_refused(
                plane,
                lambda ingress=ingress, egress=egress: plane.submit(
                    ingress=ingress, egress=egress, volume=10.0, deadline=90.0, now=5.0,
                    max_rate=50.0,
                ),
                InvalidRequestError,
            )

    def test_time_going_backwards_changes_nothing(self, make_plane):
        plane = half_open(make_plane)
        plane.cancel(0, now=5.0)
        assert_refused(plane, lambda: plane.cancel(1, now=4.0), ConfigurationError)
        assert_refused(
            plane,
            lambda: plane.submit(ingress=0, egress=1, volume=10.0, deadline=90.0, now=4.0),
            ConfigurationError,
        )

    def test_open_batch_survives_a_refused_call(self):
        """The socket-reachable case: DELETE of an unknown rid used to flush
        the open batch with no journal entry (pending 2 → 0 live, 2 replayed)."""
        gateway = half_open(PLANES["gateway-s4b4"])
        assert gateway.pending() == 2
        with pytest.raises(KeyError):
            gateway.cancel(999_999, now=5.0)
        assert gateway.pending() == 2
        assert Gateway.replay(gateway.journal).pending() == 2


class TestReadmissionPrunesInsteadOfRaising:
    def test_clipped_window_inside_the_deadline_tolerance(self):
        """volume/max_rate = 1.0000005 s against a window clipped to 1 s:
        past the prune test's tolerance, refused by Request — without the
        guard restart_broker raised."""
        gateway = Gateway(
            Platform.uniform(2, 2, 1000.0),
            num_shards=2,
            batch_size=1,
            backlog_limit=4,
            journal=Journal(),
        )
        gateway.crash_broker(0, now=0.0)
        ticket = gateway.submit(
            ingress=0, egress=1, volume=1000.0005, deadline=1000.0, now=0.0, max_rate=1000.0
        )
        assert not ticket.confirmed
        assert gateway.snapshot()["backlog"] == [ticket.rid]
        gateway.restart_broker(0, now=999.0)  # returns: the entry is pruned
        snapshot = gateway.snapshot()
        assert snapshot["backlog"] == []
        assert snapshot["next_rid"] == ticket.rid + 1  # no rid burned on the way
        assert_replays(gateway)


class TestOneVocabulary:
    def test_every_verb_journals_its_own_name(self):
        assert lifecycle.JOURNAL_OPS == {
            "submit", "cancel", "abort", "degrade", "reshape", "drain", "crash", "restart",
            "checkpoint",
        }  # fmt: skip
        for name in ("gateway-s1b1", "gateway-s4b4"):
            plane = PLANES[name](Platform.uniform(4, 4, 100.0), malleable=True)
            rid = plane.submit(ingress=0, egress=1, volume=500.0, deadline=50.0, now=0.0).rid
            plane.submit(ingress=1, egress=1, volume=500.0, deadline=50.0, now=0.0)
            plane.reshape(rid, now=1.0)
            plane.degrade(side="egress", port=1, amount=60.0, start=2.0, end=9.0, now=1.0)
            plane.abort(rid, now=2.0)
            plane.cancel(rid + 1, now=3.0)
            assert {e.op for e in plane.journal} == {
                "submit", "reshape", "degrade", "abort", "cancel"
            }  # fmt: skip
            assert_replays(plane)

    def test_format_1_fails_at_the_header_naming_both_tags(self):
        old = '{"format": "repro-journal/1", "kind": "gateway"}\n{"op": "gw_drain", "now": 0.0}\n'
        with pytest.raises(ConfigurationError) as excinfo:
            Journal.from_jsonl(old)
        assert "repro-journal/1" in str(excinfo.value)
        assert JOURNAL_FORMAT in str(excinfo.value) and JOURNAL_FORMAT.endswith("/2")


class TestOldServiceJournals:
    """Journals written by the retired single-ledger service (fixtures
    recorded with it: ``backlog_limit=0``, ``malleable`` on, constant and
    profile submits, a shaped fallback, cancel, abort, degrade, reshape and
    a rebooking)."""

    def test_replay_into_the_default_gateway_decides_the_same(self):
        journal = Journal.load(DATA / "service_journal.jsonl")
        assert "kind" not in journal.header and journal.header["malleable"] is True
        assert {e.op for e in journal} == {"submit", "cancel", "abort", "degrade", "reshape"}
        rebuilt = Gateway.replay(journal)
        expected = json.loads((DATA / "service_journal.rows.json").read_text())
        assert lifecycle.reservation_rows(rebuilt.reservations()) == expected
        assert rebuilt.malleable and rebuilt.num_shards == 1

    def test_an_online_striped_line_is_refused_before_anything_is_applied(self):
        text = (DATA / "service_journal_striped.jsonl").read_text()
        with pytest.raises(ConfigurationError, match="submit_striped"):
            Journal.from_jsonl(text)

    def test_a_backlogged_service_journal_is_refused_before_anything_is_applied(self):
        lines = (DATA / "service_journal.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["backlog_limit"] = 8
        journal = Journal.from_jsonl("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ConfigurationError, match="backlog_limit > 0"):
            Gateway.replay(journal)

    def test_a_foreign_kind_is_refused(self):
        journal = Journal()
        journal.set_header({"kind": "service", "platform": Platform.uniform(2, 2, 1.0).to_dict()})
        with pytest.raises(ConfigurationError, match="not a gateway journal"):
            Gateway.replay(journal)


# ----------------------------------------------------------------------
# Seeded property: random verb streams, a quarter of them invalid
# ----------------------------------------------------------------------
def random_call(plane, rng, now):
    """One public-verb call as ``(thunk, invalid)``; ``invalid`` calls
    carry an argument the plane must refuse."""
    ports = plane.platform.num_ingress
    next_rid = plane.snapshot()["next_rid"]
    invalid = rng.random() < 0.3 and plane.now > float("-inf")
    flaw = rng.choice(["rid", "stale", "profile", "amount", "port"]) if invalid else None
    at = plane.now - 1.0 if flaw == "stale" else now
    rid = 10_000 + rng.randrange(100) if flaw == "rid" else rng.randrange(max(1, next_rid))
    port = rng.choice([-1, ports, ports + 3]) if flaw == "port" else rng.randrange(ports)
    verb = rng.choice(
        ["submit"] * 4 + ["cancel", "abort", "reshape", "degrade", "profile", "broker"]
    )
    if flaw in ("rid", "stale") and verb not in ("cancel", "abort", "reshape"):
        verb = rng.choice(["cancel", "abort", "reshape"])
    if flaw == "amount":
        verb = "degrade"
    if flaw == "profile":
        verb = "profile"
    if flaw == "port" and verb in ("cancel", "abort", "reshape", "broker"):
        verb = "submit"
    if verb in ("cancel", "abort", "reshape"):
        return (lambda: getattr(plane, verb)(rid, now=at)), invalid
    if verb == "submit":
        fields = dict(
            ingress=port, egress=rng.randrange(ports), volume=rng.uniform(50.0, 3000.0),
            deadline=now + rng.uniform(5.0, 60.0), now=at, max_rate=rng.choice([None, 80.0]),
        )  # fmt: skip
        if flaw == "port":
            fields["max_rate"] = 80.0  # else the default-rate lookup trips first
        return (lambda: plane.submit(**fields)), invalid
    if verb == "profile":
        volume = -30.0 if flaw == "profile" else 300.0  # segments deliver 300 MB
        segments = [[now + 1.0, now + 6.0, 40.0], [now + 6.0, now + 11.0, 20.0]]
        return (
            lambda: plane.submit(
                ingress=port, egress=rng.randrange(ports), volume=volume,
                deadline=now + 40.0, now=at, profile=segments,
            )  # fmt: skip
        ), invalid
    if verb == "broker":
        shard = rng.randrange(plane.num_shards)
        toggle = plane.restart_broker if plane.brokers[shard].crashed else plane.crash_broker
        return (lambda: toggle(shard, now=at)), invalid
    amount = -5.0 if flaw == "amount" else rng.uniform(20.0, 100.0)
    return (
        lambda: plane.degrade(
            side=rng.choice(["ingress", "egress"]), port=port, amount=amount,
            start=now + rng.uniform(0.0, 5.0), end=now + rng.uniform(6.0, 30.0), now=at,
        )  # fmt: skip
    ), invalid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_verb_streams_replay_snapshot_equal_after_every_call(make_plane, seed):
    import random

    rng = random.Random(seed)
    plane = make_plane(Platform.uniform(4, 4, 100.0), backlog_limit=4, malleable=True)
    now, refused, calls = 0.0, 0, 70
    for _ in range(calls):
        now += rng.choice([0.0, 0.0, 0.5, 2.0, 7.0])
        call, invalid = random_call(plane, rng, now)
        before, entries = plane.snapshot(), len(plane.journal)
        try:
            call()
        except ARGUMENT_ERRORS:
            refused += 1
            assert plane.snapshot() == before
            assert len(plane.journal) == entries
        else:
            assert not invalid, "a flawed call was accepted"
        assert_replays(plane)
        assert plane.max_overcommit() <= 1e-6
        now = max(now, plane.now)
    assert refused >= calls // 5
