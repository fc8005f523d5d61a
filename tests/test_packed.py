"""Packed checkpoint columns: :func:`repro.core.packed.pack` / ``unpack``
and the ticket table's columns built on them.

A column packs as ``base64(zlib(little-endian bytes))`` and unpacks to
the same bits — NaN payloads and signed zeros included — on a host of
either byte order; text that is not a whole packed column raises
``ConfigurationError`` rather than reading as a shorter one.  A
:class:`TicketTable` written as columns over a seeded stream of the
lifecycle's writes (edge refusals, grants, shapes, stamps, burned rids,
rids far past the last row, non-ASCII clients) restores bit for bit, to
the dump its legacy rows restore to, and keeps growing where it left off.
CI runs this file under ``--hypothesis-profile=deep``.
"""

import json
import zlib
from array import array
from base64 import b64decode, b64encode
from contextlib import contextmanager
from math import nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.packed as packed
from repro.core.allocation import Allocation
from repro.core.booking import RejectReason
from repro.core.errors import ConfigurationError
from repro.core.packed import pack, unpack
from repro.core.profile import RateProfile
from repro.gateway.tickets import (
    _COLUMNS,
    BURNED,
    DECIDED,
    ENDINGS,
    PENDING,
    REFUSED,
    TicketTable,
)

TYPECODES = ("b", "i", "q", "d")

#: A column of any bits: whole items of a random byte string.
COLUMNS = st.tuples(st.sampled_from(TYPECODES), st.binary(max_size=400)).map(
    lambda drawn: column_of(*drawn)
)


def column_of(typecode, raw):
    column = array(typecode)
    column.frombytes(raw[: len(raw) - len(raw) % column.itemsize])
    return column


@contextmanager
def byte_order(swap):
    """Pack and unpack as a host that byteswaps (``swap``) or does not."""
    host = packed.SWAP
    packed.SWAP = swap
    try:
        yield
    finally:
        packed.SWAP = host


@given(COLUMNS)
def test_a_column_round_trips_bit_for_bit(column):
    text = pack(column)
    assert text.isascii() and json.loads(json.dumps(text)) == text
    again = unpack(column.typecode, text, len(column))
    assert again.typecode == column.typecode and again.tobytes() == column.tobytes()
    assert unpack(column.typecode, text).tobytes() == column.tobytes()


@given(COLUMNS)
def test_the_other_byte_order_writes_and_reads_the_same_text(column):
    """The same numbers as the other byte order holds them (each item's
    bytes reversed) pack to the same text there, and that text unpacks to
    them there: the packed bytes are little-endian on either host."""
    text = pack(column)
    there = column[:]
    there.byteswap()
    with byte_order(not packed.SWAP):
        assert pack(there) == text
        assert unpack(column.typecode, text, len(column)).tobytes() == there.tobytes()
    little = column[:]
    if packed.SWAP:
        little.byteswap()
    assert zlib.decompress(b64decode(text)) == little.tobytes()


@given(COLUMNS, st.data())
def test_a_truncated_column_raises(column, data):
    text = pack(column)
    cut = data.draw(st.integers(0, len(text) - 1))
    with pytest.raises(ConfigurationError):
        unpack(column.typecode, text[:cut], len(column))
    if len(column):  # whole items missing from a well-formed stream
        short = pack(column[: data.draw(st.integers(0, len(column) - 1))])
        with pytest.raises(ConfigurationError, match="expected"):
            unpack(column.typecode, short, len(column))
    raw = column.tobytes()
    if column.itemsize > 1 and raw:  # part of an item missing
        partial = b64encode(zlib.compress(raw[:-1])).decode()
        with pytest.raises(ConfigurationError):
            unpack(column.typecode, partial, len(column))


@given(COLUMNS, st.data())
def test_a_corrupt_column_raises_or_reads_unchanged(column, data):
    """A damaged byte of the zlib stream, or a character outside the
    base64 alphabet, never yields different numbers: the stream's
    checksum refuses them.  (A bit the stream ignores, such as the
    padding after its last block, changes nothing.)"""
    text = pack(column)
    stream = bytearray(b64decode(text))
    at = data.draw(st.integers(0, len(stream) - 1))
    stream[at] ^= data.draw(st.integers(1, 255))
    try:
        again = unpack(column.typecode, b64encode(stream).decode(), len(column))
    except ConfigurationError:
        pass
    else:
        assert again.tobytes() == column.tobytes()
    spot = data.draw(st.integers(0, len(text) - 1))
    with pytest.raises(ConfigurationError):
        unpack(column.typecode, text[:spot] + "*" + text[spot + 1 :], len(column))


@pytest.mark.parametrize("bad", [None, 12, "not base64!", b64encode(b"not zlib").decode()])
def test_what_is_not_a_packed_column_raises(bad):
    with pytest.raises(ConfigurationError):
        unpack("d", bad)


# ----------------------------------------------------------------------
# The ticket table's columns
# ----------------------------------------------------------------------
CLIENTS = ["default", "a", "été", "客户", "Ωmega"]
SHAPES = [None, [[0.0, 5.0, 2.0]], [[1.0, 2.0, 3.0], [4.0, 9.0, 0.5]]]

#: One write: (kind, a, b, c) — a picks a client, a row or a gap, b and c
#: the numbers or shapes it writes.
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add"] * 4 + ["skip", "refuse", "accept", "reject", "grant", "burn", "end"]
        ),
        st.integers(0, 2000),
        st.integers(0, 2),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    max_size=60,
)


def drive(table, ops, rids):
    """Apply ``ops`` to ``table``; ``rids`` lists the rows added so far."""
    for kind, a, b, c in ops:
        if kind in ("add", "skip"):
            rid = (rids[-1] + 1 if rids else 0) + (a // 4 if kind == "skip" else 0)
            wanted = RateProfile.maybe_from(SHAPES[b])
            origin = rids[a % len(rids)] if rids and a % 3 == 0 else None
            table.add(rid, len(rids), CLIENTS[a % len(CLIENTS)], origin,
                      a % 7, b, 1.0 + c, c, c + 60.0, 1000.0, wanted)  # fmt: skip
            rids.append(rid)
            continue
        if not rids:
            continue
        rid = rids[a % len(rids)]
        i = rid - table.base
        if i >= len(table) or table.status[i] == BURNED:
            continue  # no verb reaches a burned rid
        if kind == "refuse":
            table.refuse(rid, float("inf") if b == 2 else c)
        elif kind == "accept":
            shape = RateProfile.maybe_from(SHAPES[b])
            table.decide(rid, (c, c + 10.0, 2.0 + c, shape), None)
        elif kind == "reject":
            table.decide(rid, None, list(RejectReason)[a % len(RejectReason)])
        elif kind == "grant":
            shape = RateProfile.maybe_from(SHAPES[b])
            table.grant(rid, Allocation(rid, 0, 1, 1.0 + c, c, c + 20.0, shape))
        elif kind == "burn":  # a refused re-admission attempt of ``rid``
            attempt = rids[-1] + 1
            client = table.clients[table.client[i]]
            table.add(attempt, len(rids), client, rid, 1, 2, 3.0 + c, c, c + 30.0, 1000.0, None)
            table.burn(attempt)
            rids.append(attempt)
        elif kind == "end":
            table.ended_at[i], table.ended_by[i] = c, 1 + b % (len(ENDINGS) - 1)


def legacy_rows(table):
    """Every ticket's row, as checkpoints held them before columns."""
    return [table.row(rid) for rid in table.rids(PENDING, DECIDED, REFUSED)]


def item(table, name, i):
    """Row ``i`` of a column, as its bytes (NaN payloads compared too)."""
    return getattr(table, name)[i : i + 1].tobytes()


def column_bytes(table, name):
    """A column's used rows, as their bytes."""
    return getattr(table, name)[: len(table)].tobytes()


@settings(deadline=None)
@given(OPS, OPS)
def test_a_table_restores_from_its_columns(ops, more):
    table, rids = TicketTable(), []
    drive(table, ops, rids)
    assert table._capacity >= len(table)
    state = json.loads(json.dumps(table.dump_state()))
    again = TicketTable.from_state(state)
    assert again.dump_state() == state
    # Every bit of every column is what the rows of a checkpoint written
    # before columns restore to: burned rows default-filled gaps, none
    # past the last ticket.
    legacy = TicketTable.from_rows(legacy_rows(table))
    assert json.dumps(legacy.dump_state()) == json.dumps(state)
    tickets = table.rids(PENDING, DECIDED, REFUSED)
    assert len(again) == len(legacy) == (tickets[-1] + 1 if tickets else 0)
    for name in _COLUMNS:
        assert column_bytes(again, name) == column_bytes(legacy, name), name
    # ... and, on every ticket's row, what the table held.
    assert json.dumps(legacy_rows(again)) == json.dumps(legacy_rows(table))
    for rid in tickets:
        for name in _COLUMNS:
            assert item(again, name, rid) == item(table, name, rid), (name, rid)
    # The restored table goes on deciding where the checkpoint left off.
    drive(table, more, [*rids])
    drive(again, more, [*rids])
    assert json.dumps(again.dump_state()) == json.dumps(table.dump_state())


def test_a_sparse_table_has_room_past_its_rows():
    """A table holds more rows than it uses (chunks of 1024): only the
    used ones are packed, and the restored table holds exactly those."""
    table, rids = TicketTable(), []
    drive(table, [("add", 0, 0, 1.0), ("skip", 6000, 1, 2.0), ("burn", 0, 0, 0.0)], rids)
    assert len(table) == 1503 and table._capacity > len(table)
    state = table.dump_state()
    assert state["rows"] == 1502  # the burned attempt after the last ticket is no row
    for name, (typecode, _) in _COLUMNS.items():
        assert len(unpack(typecode, state["columns"][name])) == 1502
    again = TicketTable.from_state(state)
    assert again._capacity == len(again) == 1502
    assert [again.status[i] for i in (0, 1, 1500, 1501)] == [PENDING, BURNED, BURNED, PENDING]


def test_a_table_with_a_truncated_column_is_refused():
    table, rids = TicketTable(), []
    drive(table, [("add", k, k % 3, float(k)) for k in range(40)], rids)
    state = table.dump_state()
    for name, (typecode, _) in _COLUMNS.items():
        cut = pack(unpack(typecode, state["columns"][name])[:-1])
        with pytest.raises(ConfigurationError, match="expected 40"):
            TicketTable.from_state({**state, "columns": {**state["columns"], name: cut}})


def test_sentinels_survive_as_their_bits():
    """NaN in the float columns, -1 in ``origin`` and ``reason``, 0 in
    ``ended_by``: what a fresh row holds is what a restored one holds."""
    table = TicketTable()
    table.add(0, 0, "été", None, 1, 2, 5.0, 0.0, 10.0, 100.0, None)
    again = TicketTable.from_state(json.loads(json.dumps(table.dump_state())))
    for name, (typecode, default) in _COLUMNS.items():
        if name in ("bw", "sigma", "tau", "ended_at", "retry_after"):
            assert item(again, name, 0) == array("d", [nan]).tobytes()
        elif name in ("origin", "reason", "ended_by", "status"):
            assert getattr(again, name)[0] == default
    assert again.clients == ["été"] and again.get(0).client == "été"
