"""The gateway's decisions as numbers: one row of columns per rid.

The paper's model (§2.1) needs nine numbers per decision: ingress,
egress, vol, t_s, t_f and MaxRate for the request, σ, τ and bw for the
grant.  :class:`TicketTable` keeps those, with the ticket's submission
order, client, origin, state and stamps, in :mod:`array` columns indexed
by ``rid − base`` — about a hundred bytes a decision, and nothing the
garbage collector has to walk, however long the service has been
deciding.  :class:`Ticket` is a live ``(table, rid)`` view: its
``request`` and ``allocation`` are built when read, and it reads every
later write (a cancel, a reshape) the moment it lands.

Writes come from the lifecycle, one setter per event: :meth:`TicketTable.add`
(a submission or a re-admission attempt), :meth:`~TicketTable.refuse`
(the edge), :meth:`~TicketTable.decide` (an admission),
:meth:`~TicketTable.burn` (a refused re-admission attempt),
:meth:`~TicketTable.grant` (a reshaped tail) and
:meth:`~TicketTable.from_state` (a checkpoint).  The stamp columns
``ended_at`` / ``ended_by`` are written only here (a fresh row) and by
:func:`repro.gateway.lifecycle.terminate` (gridlint GL004).

A checkpoint holds the table as its columns (:meth:`TicketTable.dump_state`):
each array cut to its rows and packed as ``base64(zlib(little-endian
bytes))`` (:mod:`repro.core.packed`), so a restart rebuilds a column with
one ``frombytes``.  :meth:`TicketTable.from_rows` reads only the
``repro-journal/2`` checkpoints written before that, which list one JSON
row per ticket (flat, or nested as the oldest hold them).
"""

from __future__ import annotations

import enum
from array import array
from math import isnan, nan
from operator import index
from collections.abc import Mapping
from typing import Any

from ..core.allocation import Allocation
from ..core.booking import RejectReason
from ..core.packed import pack, unpack
from ..core.profile import RateProfile
from ..core.request import Request

__all__ = ["Grant", "ReservationState", "Ticket", "TicketTable"]

#: What an admission granted, as the columns hold it: ``(σ, τ, bw, shape)``
#: (``shape`` ``None``: the constant rate ``bw``).
Grant = tuple[float, float, float, "RateProfile | None"]


class ReservationState(enum.Enum):
    """Lifecycle of a reservation."""

    REJECTED = "rejected"
    CONFIRMED = "confirmed"   # booked, transfer not yet started
    ACTIVE = "active"         # transfer in progress
    COMPLETED = "completed"   # transfer window fully elapsed
    CANCELLED = "cancelled"
    ABORTED = "aborted"       # transfer failed mid-flight
    DISPLACED = "displaced"   # cancelled by a port outage/degradation


# The ``status`` column's codes.
#: Submitted; its batch has not flushed.
PENDING = 0
#: Its batch decided it: accepted (``bw`` set) or rejected.
DECIDED = 1
#: Refused by the per-client edge limiter (never batched; decided).
REFUSED = 2
#: A refused re-admission attempt's rid: no ticket (``get`` raises).
BURNED = 3

#: The ``ended_by`` column's codes: how a reservation ended early, by
#: code (``0``: it did not); a row lists the stamps in this order.
ENDINGS: tuple[ReservationState | None, ...] = (
    None,
    ReservationState.CANCELLED,
    ReservationState.ABORTED,
    ReservationState.DISPLACED,
)
ENDED_BY = {state: code for code, state in enumerate(ENDINGS) if state is not None}
#: The states in which part of a grant is still unconsumed.
_LIVE = (ReservationState.CONFIRMED, ReservationState.ACTIVE)

#: The ``reason`` column's codes (``-1``: no reason).
REASONS: tuple[RejectReason, ...] = tuple(RejectReason)
_REASON_CODE = {reason: code for code, reason in enumerate(REASONS)}

#: ``(typecode, default)`` of every column, in the order a row lists them
#: where it has them (see :meth:`TicketTable.row`).
_COLUMNS: dict[str, tuple[str, Any]] = {
    "seq": ("q", 0),
    "client": ("i", 0),
    "ingress": ("i", 0),
    "egress": ("i", 0),
    "volume": ("d", nan),
    "t_start": ("d", nan),
    "t_end": ("d", nan),
    "max_rate": ("d", nan),
    "bw": ("d", nan),
    "sigma": ("d", nan),
    "tau": ("d", nan),
    "ended_at": ("d", nan),
    "ended_by": ("b", 0),
    "origin": ("q", -1),
    "reason": ("b", -1),
    "retry_after": ("d", nan),
    "status": ("b", PENDING),
}

#: Rows a table grows by at least, at once (every column, default-filled).
_CHUNK = 1024


class TicketTable:
    """Every ticket a gateway issued, as columns indexed by ``rid − base``.

    ``seq`` / ``origin`` are ``array('q')``; ``client`` / ``ingress`` /
    ``egress`` ``array('i')`` (``client`` a code into :attr:`clients`);
    the request's and the grant's numbers, ``ended_at`` and
    ``retry_after`` ``array('d')``; ``status`` / ``ended_by`` / ``reason``
    ``array('b')`` codes.  Each column is held as a ``memoryview`` of its
    array: an item written through one costs about half what an ``array``
    subscript does.  ``base`` is the rid of row 0: always 0 today
    (dropping decided tickets past a TTL would advance it).  Every rid
    below ``base + len(table)`` has a row: a rid a refused re-admission
    attempt burned keeps its numbers with status :data:`BURNED`.

    A stepwise shape — the profile a client asked for, or the one a
    malleable grant or reshape carved — is not a number: those live in
    one overflow dict, :attr:`shapes`, ``rid → (wanted, granted)``, which
    holds only the rids that have one.

    The sentinels cannot be mistaken for values:

    - ``NaN`` in ``bw`` / ``sigma`` / ``tau`` means "no grant",
      in ``ended_at`` "no stamp", in ``retry_after`` "no hint".  A grant
      is a positive rate over a real window; a stamp is the instant of a
      verb that ended a *live* reservation, and a NaN instant makes none
      live (every comparison with it is false); an edge hint is
      ``max(0.0, …)``, which is never NaN (``inf`` is a valid hint: the
      volume exceeds the burst).
    - ``-1`` in ``origin`` means "no origin": an origin is a rid the
      gateway issued, and rids start at 0.  ``-1`` in ``reason`` means
      "no reject reason"; codes index :data:`REASONS`.
    - ``0`` in ``ended_by`` means "not ended"; 1–3 are cancel, abort and
      displacement (:data:`ENDINGS`).

    Numbers are stored as IEEE doubles and 32/64-bit integers, so a
    request submitted with integer volume or times reads back as floats
    (equal, but serialised as ``1000.0``).
    """

    __slots__ = (*_COLUMNS, "base", "clients", "_client_codes", "shapes", "_rows", "_capacity")

    seq: memoryview[int]
    client: memoryview[int]
    ingress: memoryview[int]
    egress: memoryview[int]
    volume: memoryview[float]
    t_start: memoryview[float]
    t_end: memoryview[float]
    max_rate: memoryview[float]
    bw: memoryview[float]
    sigma: memoryview[float]
    tau: memoryview[float]
    ended_at: memoryview[float]
    ended_by: memoryview[int]
    origin: memoryview[int]
    reason: memoryview[int]
    retry_after: memoryview[float]
    status: memoryview[int]

    def __init__(self) -> None:
        for name, (typecode, _) in _COLUMNS.items():
            setattr(self, name, memoryview(array(typecode)))
        self.base = 0
        #: Client names by code (the ``client`` column).
        self.clients: list[str] = []
        self._client_codes: dict[str, int] = {}
        #: ``rid → (wanted, granted)`` for the rids with a stepwise shape.
        self.shapes: dict[int, tuple[RateProfile | None, RateProfile | None]] = {}
        self._rows = 0
        self._capacity = 0

    def __len__(self) -> int:
        """Rows held (burned rids included)."""
        return self._rows

    def _grow(self, rows: int) -> None:
        """Default-fill every column up to ``rows`` rows at least.  Each
        column's array is replaced by an exact-size copy (``extend`` would
        over-allocate by a sixteenth)."""
        more = max(rows - self._capacity, _CHUNK, self._capacity >> 3)
        for name, (typecode, default) in _COLUMNS.items():
            grown = getattr(self, name).obj + array(typecode, [default]) * more
            setattr(self, name, memoryview(grown))
        self._capacity += more

    def _open(self, rid: int) -> int:
        """The index of a new row for ``rid``; rids skipped since the last
        row are burned (a checkpoint does not list them)."""
        i = rid - self.base
        if i >= self._capacity:
            self._grow(i + 1)
        while self._rows < i:
            self.status[self._rows] = BURNED
            self._rows += 1
        self._rows = i + 1
        return i

    def _code(self, client: str) -> int:
        code = self._client_codes.get(client)
        if code is None:
            code = self._client_codes[client] = len(self.clients)
            self.clients.append(client)
        return code

    def _shape(self, rid: int, wanted: RateProfile | None, granted: RateProfile | None) -> None:
        if wanted is None and granted is None:
            self.shapes.pop(rid, None)
        else:
            self.shapes[rid] = (wanted, granted)

    # ------------------------------------------------------------------
    # Setters (the lifecycle's writes)
    # ------------------------------------------------------------------
    def add(
        self, rid: int, seq: int, client: str, origin: int | None, ingress: int, egress: int,
        volume: float, t_start: float, t_end: float, max_rate: float,
        wanted: RateProfile | None,
    ) -> None:  # fmt: skip
        """The row of a submission (or a re-admission attempt): its
        request's fields, pending.  ``rid`` is at or past every row held."""
        i = rid - self.base
        if i == self._rows < self._capacity:
            self._rows = i + 1
        else:
            self._open(rid)
        self.seq[i] = seq
        try:
            self.client[i] = self._client_codes[client]
        except KeyError:
            self.client[i] = self._code(client)
        self.ingress[i] = ingress
        self.egress[i] = egress
        self.volume[i] = volume
        self.t_start[i] = t_start
        self.t_end[i] = t_end
        self.max_rate[i] = max_rate
        if origin is not None:
            self.origin[i] = origin
        if wanted is not None:
            self.shapes[rid] = (wanted, None)

    def refuse(self, rid: int, retry_after: float) -> None:
        """The edge refused ``rid``: decided, with a retry hint."""
        i = rid - self.base
        self.retry_after[i] = retry_after
        self.status[i] = REFUSED

    def decide(self, rid: int, grant: Grant | None, reason: RejectReason | None) -> None:
        """``rid``'s admission: its grant (``None``: rejected) and reason."""
        i = rid - self.base
        if grant is not None:
            # grant(), inlined: this is every admission's write.
            self.sigma[i], self.tau[i], self.bw[i], shape = grant
            if shape is not None:
                self._shape(rid, self.wanted(rid), shape)
        if reason is not None:
            self.reason[i] = _REASON_CODE[reason]
        self.status[i] = DECIDED

    def grant(self, rid: int, allocation: Allocation) -> None:
        """``rid``'s granted window, rate and shape (an admission, or a
        reshaped tail)."""
        i = rid - self.base
        self.bw[i] = allocation.bw
        self.sigma[i] = allocation.sigma
        self.tau[i] = allocation.tau
        if allocation.profile is not None or rid in self.shapes:
            self._shape(rid, self.wanted(rid), allocation.profile)

    def burn(self, rid: int) -> None:
        """A re-admission attempt was refused: ``rid`` is no ticket (its
        numbers stay, for a traced record of the attempt)."""
        self.status[rid - self.base] = BURNED

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def has(self, rid: int) -> bool:
        """Is ``rid`` a ticket (held, and not burned)?"""
        try:
            i = index(rid) - self.base  # a numpy integer names a rid too
        except TypeError:
            return False
        return 0 <= i < self._rows and self.status[i] != BURNED

    def get(self, rid: int) -> Ticket:
        """``rid``'s view; ``KeyError`` unless it is a ticket."""
        if not self.has(rid):
            raise KeyError(f"unknown reservation {rid}")
        return Ticket(self, index(rid))

    def rids(self, *statuses: int) -> list[int]:
        """The rids whose status is one of ``statuses``, in order."""
        status, base = self.status, self.base
        return [base + i for i in range(self._rows) if status[i] in statuses]

    def request(self, rid: int) -> Request:
        """``rid``'s request, built from its row."""
        i = rid - self.base
        return Request(
            rid, self.ingress[i], self.egress[i], self.volume[i],
            self.t_start[i], self.t_end[i], self.max_rate[i],
        )  # fmt: skip

    def allocation(self, rid: int) -> Allocation | None:
        """``rid``'s grant, built from its row (``None``: none)."""
        i = rid - self.base
        bw = self.bw[i]
        if isnan(bw):
            return None
        granted = self.shapes.get(rid, (None, None))[1]
        return Allocation(
            rid, self.ingress[i], self.egress[i], bw, self.sigma[i], self.tau[i], granted
        )

    def wanted(self, rid: int) -> RateProfile | None:
        """The stepwise shape ``rid``'s client asked for, if any."""
        shapes = self.shapes
        return shapes[rid][0] if shapes and rid in shapes else None

    def ended(self, rid: int) -> tuple[ReservationState | None, float | None]:
        """How and when ``rid`` ended early (``(None, None)``: it did not)."""
        i = rid - self.base
        code = self.ended_by[i]
        return (ENDINGS[code], self.ended_at[i]) if code else (None, None)

    def state(self, rid: int, now: float) -> ReservationState:
        """``rid``'s lifecycle state as of ``now``."""
        i = rid - self.base
        if isnan(self.bw[i]):
            return ReservationState.REJECTED
        code = self.ended_by[i]
        if code:
            return ENDINGS[code]  # type: ignore[return-value]
        if now < self.sigma[i]:
            return ReservationState.CONFIRMED
        if now < self.tau[i]:
            return ReservationState.ACTIVE
        return ReservationState.COMPLETED

    def live(self, rid: int, now: float) -> bool:
        """Is part of ``rid``'s grant still unconsumed at ``now`` (granted,
        not ended, ``now < τ``)?"""
        return self.state(rid, now) in _LIVE

    # ------------------------------------------------------------------
    # Checkpoint rows
    # ------------------------------------------------------------------
    def row(self, rid: int) -> list[Any]:
        """``rid``'s row as one flat JSON-able list: rid, seq, client; the
        request's fields; the grant's rate, window and shape (all ``None``
        when there is none); the three stamps, origin, reject reason, edge
        refusal, retry hint, wanted shape and decided flag: a ticket as
        checkpoints listed it before they held columns, which
        :meth:`from_rows` still reads."""
        i = rid - self.base
        bw = self.bw[i]
        wanted, granted = self.shapes.get(rid, (None, None))
        stamps: list[float | None] = [None, None, None]
        code = self.ended_by[i]
        if code:
            stamps[code - 1] = self.ended_at[i]
        origin, reason, retry = self.origin[i], self.reason[i], self.retry_after[i]
        status = self.status[i]
        return [
            rid, self.seq[i], self.clients[self.client[i]],
            self.ingress[i], self.egress[i], self.volume[i], self.t_start[i], self.t_end[i],
            self.max_rate[i],
            *((None, None, None, None) if isnan(bw) else (
                bw, self.sigma[i], self.tau[i], None if granted is None else granted.to_list()
            )),
            *stamps,
            None if origin < 0 else origin,
            None if reason < 0 else REASONS[reason].value,
            status == REFUSED,
            None if isnan(retry) else retry,
            None if wanted is None else wanted.to_list(),
            status != PENDING,
        ]  # fmt: skip

    # ------------------------------------------------------------------
    # Checkpoint columns
    # ------------------------------------------------------------------
    def dump_state(self) -> dict[str, Any]:
        """The table as a checkpoint holds it, JSON-able: ``rows``, the
        ``clients`` by code, every column cut to ``rows`` and packed
        (:func:`~repro.core.packed.pack`), and the ``shapes`` by rid.
        :meth:`from_state` restores it exactly.

        Burned rows are written as :meth:`from_rows` restores them (a
        burned rid has no checkpoint row): default-filled, without a
        shape, and none after the last ticket.  Their numbers are kept
        for the life of the process only."""
        rows = self._rows
        status = self.status[:rows].tobytes()
        rows = len(status.rstrip(bytes([BURNED])))
        columns = {name: getattr(self, name).obj[:rows] for name in _COLUMNS}
        burned = status.find(BURNED, 0, rows)
        while burned >= 0:
            for name, (_, default) in _COLUMNS.items():
                columns[name][burned] = default
            columns["status"][burned] = BURNED
            burned = status.find(BURNED, burned + 1, rows)
        return {
            "rows": rows,
            "clients": list(self.clients),
            "columns": {name: pack(column) for name, column in columns.items()},
            "shapes": {
                str(rid): [None if shape is None else shape.to_list() for shape in pair]
                for rid, pair in sorted(self.shapes.items())
                if rid - self.base < rows and self.status[rid - self.base] != BURNED
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> TicketTable:
        """The table :meth:`dump_state` wrote: one ``frombytes`` per column
        (``ConfigurationError`` when a column is not ``rows`` long)."""
        table = cls()
        rows = state["rows"]
        packed = state["columns"]
        for name, (typecode, _) in _COLUMNS.items():
            setattr(table, name, memoryview(unpack(typecode, packed[name], rows)))
        table._rows = table._capacity = rows
        table.clients = list(state["clients"])
        table._client_codes = {client: code for code, client in enumerate(table.clients)}
        table.shapes = {
            int(rid): (RateProfile.maybe_from(wanted), RateProfile.maybe_from(granted))
            for rid, (wanted, granted) in state["shapes"].items()
        }
        return table

    @classmethod
    def from_rows(cls, rows: list[list[Any]]) -> TicketTable:
        """The table of a checkpoint written before tickets were columns:
        one :meth:`row` per ticket (burned rids have none), flat, or with
        the request and the allocation nested (14 fields) as still older
        ones hold them."""
        table = cls()
        for row in rows:
            if len(row) == 14:
                rid, seq, client, request, allocation, *rest = row
                row = [rid, seq, client, *request[1:], *(allocation or [None] * 7)[3:], *rest]
            (
                rid, seq, client, ingress, egress, volume, t_start, t_end, max_rate, bw, sigma,
                tau, shape, cancelled_at, aborted_at, displaced_at, origin, reason, edge_refused,
                retry_after, profile, decided,
            ) = row  # fmt: skip
            i = table._open(rid)
            table.seq[i] = seq
            table.client[i] = table._code(client)
            table.ingress[i], table.egress[i] = ingress, egress
            table.volume[i], table.t_start[i], table.t_end[i] = volume, t_start, t_end
            table.max_rate[i] = max_rate
            if bw is not None:
                table.bw[i], table.sigma[i], table.tau[i] = bw, sigma, tau
            for code, stamp in enumerate((cancelled_at, aborted_at, displaced_at), 1):
                if stamp is not None:
                    table.ended_at[i], table.ended_by[i] = stamp, code
            if origin is not None:
                table.origin[i] = origin
            if reason is not None:
                table.reason[i] = _REASON_CODE[RejectReason(reason)]
            if retry_after is not None:
                table.retry_after[i] = retry_after
            table.status[i] = REFUSED if edge_refused else DECIDED if decided else PENDING
            table._shape(rid, RateProfile.maybe_from(profile), RateProfile.maybe_from(shape))
        return table


class Ticket:
    """A live view of one ticket: a client's handle on one transfer.

    :meth:`Gateway.submit <repro.gateway.gateway.Gateway.submit>` returns
    one pending; the flush that decides its batch writes its row, and the
    view reads it from then on.  ``gateway.get(rid)``, the entries of
    ``reservations()``, what ``on_decision`` receives and what the
    lifecycle verbs act on are views of the same row: equal (same table,
    same rid), not the same object.  ``request`` and ``allocation`` are
    built on each read.
    """

    __slots__ = ("table", "rid")

    def __init__(self, table: TicketTable, rid: int) -> None:
        self.table = table
        self.rid = rid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ticket):
            return NotImplemented
        return other.table is self.table and other.rid == self.rid

    def __hash__(self) -> int:
        return hash(self.rid)

    def __repr__(self) -> str:
        if not self.table.has(self.rid):
            return f"Ticket(rid={self.rid})"
        return f"Ticket(rid={self.rid}, row={self.row()!r})"

    @property
    def request(self) -> Request:
        return self.table.request(self.rid)

    @property
    def allocation(self) -> Allocation | None:
        """The admitted window and rate; ``None`` when rejected or undecided."""
        return self.table.allocation(self.rid)

    @property
    def seq(self) -> int:
        """Submission order (the batch orderings' tiebreak)."""
        return self.table.seq[self.rid - self.table.base]

    @property
    def client(self) -> str:
        table = self.table
        return table.clients[table.client[self.rid - table.base]]

    @property
    def origin(self) -> int | None:
        """rid of the reservation this one re-admits or rebooks, if any."""
        origin = self.table.origin[self.rid - self.table.base]
        return None if origin < 0 else origin

    @property
    def profile(self) -> RateProfile | None:
        """The stepwise shape the client asked for (``None`` = constant rate)."""
        return self.table.wanted(self.rid)

    @property
    def reject_reason(self) -> RejectReason | None:
        """Why admission failed (``None`` on confirmed reservations)."""
        code = self.table.reason[self.rid - self.table.base]
        return None if code < 0 else REASONS[code]

    def _stamp(self, how: ReservationState) -> float | None:
        ended, at = self.table.ended(self.rid)
        return at if ended is how else None

    @property
    def cancelled_at(self) -> float | None:
        return self._stamp(ReservationState.CANCELLED)

    @property
    def aborted_at(self) -> float | None:
        return self._stamp(ReservationState.ABORTED)

    @property
    def displaced_at(self) -> float | None:
        return self._stamp(ReservationState.DISPLACED)

    @property
    def edge_refused(self) -> bool:
        """Refused by the per-client edge limiter (never entered a batch)."""
        return self.table.status[self.rid - self.table.base] == REFUSED

    @property
    def retry_after(self) -> float | None:
        """Seconds until the refused volume would conform again (edge
        refusals only; ``inf`` when the volume exceeds the burst).  The
        service plane surfaces this as an HTTP 429 ``Retry-After`` hint."""
        retry = self.table.retry_after[self.rid - self.table.base]
        return None if isnan(retry) else retry

    @property
    def decided(self) -> bool:
        """The batch holding this submission has flushed, or the edge refused it."""
        return self.table.status[self.rid - self.table.base] != PENDING

    @property
    def confirmed(self) -> bool:
        """Was the reservation admitted?"""
        return not isnan(self.table.bw[self.rid - self.table.base])

    @property
    def terminated_at(self) -> float | None:
        """When the reservation ended early (cancel/abort/displacement)."""
        return self.table.ended(self.rid)[1]

    @property
    def carried(self) -> float:
        """MB actually delivered before the transfer ended."""
        alloc = self.allocation
        if alloc is None:
            return 0.0
        stop = self.terminated_at
        end = alloc.tau if stop is None else min(stop, alloc.tau)
        return alloc.carried_before(end)

    @property
    def residual(self) -> float:
        """MB still undelivered when the reservation ended early."""
        return max(0.0, self.table.volume[self.rid - self.table.base] - self.carried)

    def state(self, now: float) -> ReservationState:
        """Lifecycle state as of time ``now``."""
        return self.table.state(self.rid, now)

    def live_allocation(self, now: float) -> Allocation | None:
        """The allocation while part of it is still unconsumed, else ``None``
        (rejected, completed, or ended early)."""
        return self.allocation if self.table.live(self.rid, now) else None

    def row(self) -> list[Any]:
        """This ticket's flat row (:meth:`TicketTable.row`)."""
        return self.table.row(self.rid)
