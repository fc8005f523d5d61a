"""Tests for the operation journal and crash-recovery replay."""

import json
from pathlib import Path

import pytest

from repro.core import ConfigurationError, InvalidRequestError, Platform
from repro.gateway import Gateway, Journal, JournalEntry, lifecycle
from repro.gateway.journal import JOURNAL_FORMAT
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
    def test_jsonl_round_trip(self, platform):
        journal = Journal()
        Gateway(platform, journal=journal).submit(
            ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0
        )
        text = journal.to_jsonl()
        again = Journal.from_jsonl(text)
        assert again.header == journal.header
        assert len(again) == 1
        assert again.entries[0].op == "submit"

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
        # save() elsewhere leaves the live file and its handle alone.
        loaded.save(tmp_path / "copy.jsonl")
        loaded.append("cancel", 3.0, rid=3)
        loaded.close()
        assert len(Journal.load(path)) == 4
        assert len(Journal.load(tmp_path / "copy.jsonl")) == 3

    def test_save_load_round_trip(self, platform, tmp_path):
        journal = Journal()
        service = Gateway(platform, journal=journal)
        service.submit(ingress=0, egress=1, volume=100.0, deadline=50.0, now=0.0)
        path = tmp_path / "saved.jsonl"
        journal.save(path)
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
        assert plane.journal.entries[-1].op == "abort"
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
