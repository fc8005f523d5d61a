"""The gateway's ticket table: every shape a ticket takes survives a
checkpoint, and reads back through its view as its row.

One gateway (2 shards, malleable, an edge limit, a backlog) is driven
through every shape a row can take: an edge refusal with a finite and
with an infinite retry hint, a cancel, an abort and a displacement, a
reshaped malleable tail, an explicit profile, and a re-admission whose
origin is rid 0 after two refused attempts burned rids 2 and 3.  Its
``dump_state`` (packed columns) must load (``_load_state``) and dump
again byte for byte, and so must the flat rows and the nested 14-field
rows that checkpoints held before they held columns.
"""

import json
import math

import pytest

from repro.core.platform import Platform
from repro.gateway import EdgeLimit, Gateway, Journal, TicketTable
from repro.core.packed import unpack
from repro.gateway.tickets import BURNED, DECIDED, PENDING, REFUSED


def drive():
    """The gateway and the rid of each shape."""
    gw = Gateway(
        Platform.uniform(2, 2, 100.0),
        num_shards=2,
        backlog_limit=4,
        malleable=True,
        edge=EdgeLimit(rate=10.0, burst=5000.0),
        journal=Journal(),
    )
    gw.crash_broker(1, now=0.0)
    # rid 0 waits on shard 1; rid 1 fills ingress 0 until its deadline.
    parked = gw.submit(ingress=0, egress=1, volume=1000.0, deadline=45.0, now=0.0, client="a")
    full = gw.submit(ingress=0, egress=0, volume=4000.0, deadline=40.0, now=0.0, client="b")
    gw.restart_broker(1, now=10.0)  # attempt rid 2: ingress 0 is full, burned
    gw.cancel(full.rid, now=20.0)  # attempt rid 3 (before the cancel) burned too
    gw.drain(25.0)  # attempt rid 4 is admitted
    shapes = {"parked": parked.rid, "cancelled": full.rid, "readmitted": 4}
    shapes["accepted"] = gw.submit(
        ingress=1, egress=0, volume=4000.0, deadline=500.0, now=30.0, client="c"
    ).rid
    shapes["edge_finite"] = gw.submit(
        ingress=1, egress=0, volume=4000.0, deadline=500.0, now=30.0, client="c"
    ).rid
    shapes["edge_inf"] = gw.submit(
        ingress=1, egress=0, volume=6000.0, deadline=500.0, now=30.0, client="c"
    ).rid
    shapes["profile"] = gw.submit(
        ingress=1, egress=1, volume=500.0, deadline=200.0, now=40.0, client="d",
        profile=[[50.0, 60.0, 50.0]],
    ).rid  # fmt: skip
    shapes["reshaped"] = gw.submit(ingress=1, egress=1, volume=2000.0, deadline=300.0, now=40.0).rid
    assert gw.reshape(shapes["reshaped"], now=45.0)
    shapes["aborted"] = gw.submit(ingress=0, egress=0, volume=900.0, deadline=200.0, now=46.0).rid
    assert gw.abort(shapes["aborted"], now=50.0)
    displaced = gw.degrade(side="ingress", port=1, amount=95.0, start=60.0, end=100.0, now=55.0)
    shapes["displaced"] = displaced[0].rid
    return gw, shapes


def read_through(ticket):
    """A ticket's row, assembled from what its view reads field by field."""
    request, alloc = ticket.request, ticket.allocation
    granted = None if alloc is None or alloc.profile is None else alloc.profile.to_list()
    reason = ticket.reject_reason
    return [
        ticket.rid, ticket.seq, ticket.client,
        request.ingress, request.egress, request.volume, request.t_start, request.t_end,
        request.max_rate,
        *((None,) * 4 if alloc is None else (alloc.bw, alloc.sigma, alloc.tau, granted)),
        ticket.cancelled_at, ticket.aborted_at, ticket.displaced_at, ticket.origin,
        None if reason is None else reason.value, ticket.edge_refused, ticket.retry_after,
        None if ticket.profile is None else ticket.profile.to_list(), ticket.decided,
    ]  # fmt: skip


def rows(table):
    """Every ticket's flat row, in rid order (burned rids have none): what
    checkpoints held before they held the table's columns."""
    return [table.row(rid) for rid in table.rids(PENDING, DECIDED, REFUSED)]


def restored(gateway, tickets):
    """A fresh gateway of ``gateway``'s configuration, loaded from its
    state with ``tickets`` as its tickets (packed columns or legacy rows)."""
    state = json.loads(json.dumps(gateway.dump_state()))
    state["tickets"] = tickets
    fresh = Gateway.restored(gateway.header())
    fresh._load_state(state)
    return fresh


def nested(row):
    """A flat row as checkpoints wrote it before rows were flat: request
    and allocation as 7-field lists of their own, 14 fields in all."""
    rid, seq, client, *request = row[:9]
    bw, sigma, tau, shape = row[9:13]
    alloc = None if bw is None else [rid, *request[:2], bw, sigma, tau, shape]
    return [rid, seq, client, [rid, *request], alloc, *row[13:]]


@pytest.fixture(scope="module")
def driven():
    return drive()


SHAPES = [
    "parked", "cancelled", "readmitted", "accepted", "edge_finite", "edge_inf", "profile",
    "reshaped", "aborted", "displaced",
]  # fmt: skip


@pytest.mark.parametrize("shape", SHAPES)
def test_each_shape_reads_back_through_its_view_as_its_row(driven, shape):
    gw, shapes = driven
    rid = shapes[shape]
    row = json.dumps(gw.get(rid).row())
    assert json.dumps(read_through(gw.get(rid))) == row
    again = restored(gw, gw.dump_state()["tickets"])
    assert json.dumps(read_through(again.get(rid))) == row


def test_the_shapes_are_what_they_say(driven):
    gw, shapes = driven
    get = {name: gw.get(rid) for name, rid in shapes.items()}
    assert get["parked"].reject_reason.value == "broker-unavailable"
    assert get["readmitted"].origin == 0 and get["readmitted"].confirmed
    assert get["parked"].origin is None and get["accepted"].origin is None
    assert math.isfinite(get["edge_finite"].retry_after) and get["edge_finite"].edge_refused
    assert get["edge_inf"].retry_after == math.inf and get["edge_inf"].edge_refused
    assert get["accepted"].retry_after is None
    assert get["cancelled"].cancelled_at == 20.0 and get["cancelled"].terminated_at == 20.0
    assert get["aborted"].aborted_at == 50.0 and get["aborted"].cancelled_at is None
    assert get["displaced"].displaced_at == 55.0
    assert get["profile"].profile is not None and get["profile"].allocation.profile is not None
    assert get["reshaped"].profile is None and len(get["reshaped"].allocation.segments()) > 1


def test_a_checkpoint_round_trips_byte_identical(driven):
    gw, _ = driven
    dumped = json.dumps(gw.dump_state())
    again = restored(gw, gw.dump_state()["tickets"])
    assert json.dumps(again.dump_state()) == dumped
    assert again.snapshot() == gw.snapshot()


def test_flat_legacy_rows_load_to_the_same_columns(driven):
    gw, _ = driven
    flat = rows(gw.tickets)
    assert {len(row) for row in flat} == {22}
    again = restored(gw, flat)
    assert json.dumps(again.dump_state()) == json.dumps(gw.dump_state())


def test_nested_legacy_rows_load_as_their_flat_rows(driven):
    gw, _ = driven
    flat = rows(gw.tickets)
    legacy = [nested(row) for row in flat]
    assert {len(row) for row in legacy} == {14}
    again = restored(gw, legacy)
    assert json.dumps(again.dump_state()) == json.dumps(gw.dump_state())
    # and the table alone, without a gateway around it
    assert rows(TicketTable.from_rows(json.loads(json.dumps(legacy)))) == flat


def test_the_rids_refused_attempts_burned_stay_gaps(driven):
    gw, shapes = driven
    again = restored(gw, gw.dump_state()["tickets"])
    for plane in (gw, again):
        for rid in (2, 3):
            assert not plane.tickets.has(rid) and plane.tickets.status[rid] == BURNED
            with pytest.raises(KeyError):
                plane.get(rid)
            with pytest.raises(KeyError):
                plane.cancel(rid, now=plane.now)
        assert [row[0] for row in rows(plane.tickets)][:3] == [0, 1, 4]
        status = plane.dump_state()["tickets"]["columns"]["status"]
        assert list(unpack("b", status))[:5] == [DECIDED, DECIDED, BURNED, BURNED, DECIDED]
    assert again.accept_rate() == gw.accept_rate()
    # The restored table keeps numbering where the checkpoint left off.
    nxt = gw.snapshot()["next_rid"]
    made = again.submit(ingress=0, egress=0, volume=10.0, deadline=again.now + 50.0, now=again.now)
    assert made.rid == nxt and again.get(nxt) == made


def test_views_are_equal_not_identical_and_read_later_writes():
    gw, shapes = drive()
    rid = shapes["accepted"]
    first, second = gw.get(rid), gw.get(rid)
    assert first == second and first is not second and hash(first) == hash(second)
    assert first != gw.get(shapes["profile"])
    assert first in gw.reservations()
    before = first.cancelled_at
    assert before is None and gw.cancel(rid, now=gw.now) is True
    assert first.cancelled_at == gw.now == second.cancelled_at
