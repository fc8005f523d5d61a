"""Append-only operation journal for crash recovery.

A production reservation plane must survive its own process crashes
without losing the ledger.  The journal is a write-ahead log of every
state-changing gateway operation — ``submit``, ``cancel``, ``abort``,
``degrade``, ``reshape``, ``drain``, ``crash``, ``restart`` — together
with a header capturing the gateway's configuration (platform
capacities, policy, shard/batch knobs, backlog limit).  Because a
gateway is deterministic given its configuration and the operation
sequence, ``Gateway.replay`` (:func:`repro.gateway.lifecycle.replay_ops`)
rebuilds a state-identical gateway (the tests assert snapshot equality).

One more entry changes nothing: ``checkpoint``, the gateway's complete
state (``Gateway.checkpoint``, written by a graceful drain).
``Gateway.resume`` restores the last one and replays only the entries
after it; ``Gateway.replay`` skips checkpoints and stays the
from-scratch oracle.  The op joined the ``/2`` vocabulary without a new
header tag, so a journal never checkpointed is byte-identical to one
written before it existed, and an older build refuses a checkpointed file
with "unknown journal op".

A journal is its lines, the header's first: :meth:`Journal.append`
encodes each (the bytes ``json.dumps`` writes; ``submit`` lines come
from a template), and every read — iteration, :meth:`Journal.to_jsonl`,
``Gateway.replay``, explain — decodes them back.  Only the sink
differs: a ``path``'s file is the lines' only copy, so its resident size
does not grow with its length and every read re-reads it; without a
``path`` (or from :meth:`Journal.from_jsonl`) they are held as strings
in a list, for the life of the journal.

Reading a journal back costs what a restart needs, not the history:
:meth:`Journal.load` decodes only the header, counts the other lines in
the file's bytes and finds the last that starts a checkpoint from the
end, without splitting the file into lines;
:meth:`Journal.last_checkpoint` seeks to that line and decodes it and
every line after it, on each call.  Without a checkpoint the full replay
a restart runs reads the rest.  ``len()``, :meth:`Journal.has_checkpoint` and
:meth:`Journal.append` never decode.

Serialisation is JSON lines: the header object on the first line, one
operation object per subsequent line (see ``docs/FAULTS.md`` for the
format).  Appends are O(1); nothing is ever rewritten.

Flush policy of a file-backed journal: one append handle, opened by the
first append and kept until :meth:`Journal.close`.  An entry is written
and ``flush()``-ed to the operating system before ``append`` returns —
unless a :meth:`Journal.group` is open (a wave: ``Gateway.submit_many``,
the service frontier's flush), whose entries go out as one ``write`` +
``flush()`` when it ends, before the wave is answered, or at the first
read, checkpoint or :meth:`Journal.close` before that.  Either way an
answered operation is write-ahead against a crash of this process
(``kill -9`` included), a reader sees every entry appended so far, and
the file is byte for byte the per-entry one.  There is no ``fsync``: an
entry the OS had not yet written back is lost with the machine.

A write cut short (full disk, machine crash) leaves a final line with no
``\n`` — after the complete lines of its group, if it was one.
Write-ahead order means that operation was never acknowledged (nor were
its group-mates), so every read drops such a line when it does not decode,
and a :meth:`Journal.load`-ed journal cuts the file back to its last
complete line before its first new append.  Undecodable text anywhere
else is corruption and raises: in :meth:`Journal.from_jsonl`; and, as a
``ConfigurationError`` naming the line, at every read of a file that
reaches it — :meth:`Journal.last_checkpoint` when it lies at or after the
last checkpoint, every full read wherever it lies.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import IO, Any

from ..core.errors import ConfigurationError
from .lifecycle import JOURNAL_OPS

__all__ = ["Journal", "JournalEntry", "JOURNAL_FORMAT"]

#: Format tag written to (and required in) every journal header.  ``/2``
#: is one op vocabulary for every plane; ``/1`` gateway journals spelled
#: theirs with a prefix and cannot be replayed.
JOURNAL_FORMAT: str = "repro-journal/2"


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journaled operation: its name, gateway time, and arguments."""

    op: str
    now: float
    args: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.op not in JOURNAL_OPS:
            raise ConfigurationError(f"unknown journal op {self.op!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {"op": self.op, "now": self.now, **dict(self.args)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> JournalEntry:
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        op = str(payload.pop("op"))
        now = float(payload.pop("now"))
        return cls(op=op, now=now, args=payload)


class Journal:
    """An append-only log of gateway operations plus a config header.

    ``header`` is written by the gateway on attach (platform, policy,
    backlog limit); entries accumulate via :meth:`append`.  An optional
    ``path`` turns every append into an immediate JSONL write — the
    write-ahead behaviour a crash-recovery log needs — and makes the file
    the only copy of the lines (see the module docstring).
    """

    def __init__(
        self,
        header: dict[str, Any] | None = None,
        path: str | Path | None = None,
    ) -> None:
        self.header: dict[str, Any] = header if header is not None else {}
        self.path: Path | None = Path(path) if path is not None else None
        #: Without a ``path``, every line, the header's first; with one,
        #: ``None``: the file is their only copy.
        self._lines: list[str] | None = (
            [json.dumps(self.header) + "\n"] if self.path is None else None
        )
        #: Entries written to the sink.
        self._length = 0
        #: Where the last ``checkpoint`` line starts, if there is one: its
        #: index in the held lines, or its byte offset in the file.
        self._checkpoint: int | None = None
        #: The append handle on ``path``, open from the first append to
        #: :meth:`close`.
        self._appender: IO[str] | None = None
        #: Inside :meth:`group`: the lines appended and not yet written.
        self._group: list[str] | None = None
        #: Set by :meth:`load` when the file does not end in a newline: where
        #: its last good line ends.  The first new append cuts the file there
        #: and supplies the newline, so that it starts on a line of its own.
        self._repair: int | None = None

    def _read(self, checkpoint: bool = False) -> Iterator[JournalEntry]:
        """Every entry or, with ``checkpoint``, the last checkpoint and the
        entries after it (the lines before it are neither decoded nor, in a
        file, read), decoded one line at a time, a torn last line skipped
        as :meth:`load` skipped it."""
        self._write()
        at = self._checkpoint if checkpoint else None
        held = self._lines
        if held is not None:
            first = 1 if at is None else at
            yield from self._decode(enumerate(islice(held, first, None), first + 1))
            return
        raw = self.path.open("rb")  # type: ignore[union-attr]
        if at is not None:
            raw.seek(at)
        with io.TextIOWrapper(raw) as lines:
            numbered = enumerate(lines, 1)
            if at is None:  # skip the header, and any blank line before it
                for _, line in numbered:
                    if not line.isspace():
                        break
            yield from self._decode(numbered, at)

    def _decode(
        self, numbered: Iterable[tuple[int, str]], offset: int | None = None
    ) -> Iterator[JournalEntry]:
        """The entries of numbered lines (blank ones skipped), a torn last
        one dropped; an undecodable one raises ``ConfigurationError``
        naming its line (numbered from byte ``offset`` of the file, if
        given)."""
        for number, line in numbered:
            if line.isspace():
                continue
            if not line.endswith("\n") and _torn(line):
                return
            try:
                entry = JournalEntry.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                if offset:
                    number += self._line_at(offset)
                raise ConfigurationError(f"journal {self.path}, line {number}: {exc}") from exc
            yield entry

    def _line_at(self, offset: int) -> int:
        """How many lines of the file end before byte ``offset`` (counted
        only to name a line that does not decode)."""
        with self.path.open("rb") as raw:  # type: ignore[union-attr]
            return raw.read(offset).count(b"\n")

    def lines(self) -> list[str]:
        """The entries' lines written so far, as a list later appends leave
        alone (no header or blank line; a torn last line dropped)."""
        self._write()
        if self._lines is not None:
            return self._lines[1:]
        text = _complete(self.path.read_bytes()).decode()  # type: ignore[union-attr]
        return [line for line in text.splitlines(keepends=True) if not line.isspace()][1:]

    def has_checkpoint(self) -> bool:
        """Does the journal hold a ``checkpoint`` entry?  Decodes nothing."""
        return self._checkpoint is not None

    def last_checkpoint(self) -> tuple[JournalEntry, list[JournalEntry]] | None:
        """The last ``checkpoint`` entry and the entries after it (what
        ``Gateway.resume`` applies), or ``None`` when there is none.
        Decodes them on each call; a file is read from where that
        checkpoint starts."""
        if self._checkpoint is None:
            return None
        checkpoint, *tail = self._read(checkpoint=True)
        return checkpoint, tail

    # ------------------------------------------------------------------
    def set_header(self, header: Mapping[str, Any]) -> None:
        """Record the gateway configuration; rewrites the lines with it first."""
        self.header = {"format": JOURNAL_FORMAT, **dict(header)}
        text = self.to_jsonl() if len(self) else json.dumps(self.header) + "\n"
        self.close()
        self._repair = None
        if self._lines is None:
            self.path.write_text(text)  # type: ignore[union-attr]
            if self._checkpoint is not None:  # its line moved
                data = text.encode()
                self._checkpoint = _last_checkpoint(data, data.index(b"\n") + 1)
        else:
            self._lines = text.splitlines(keepends=True)

    def append(self, op: str, now: float, **args: Any) -> None:
        """Append one operation; written (and flushed, when backed) before
        returning, unless a :meth:`group` is open (see the module docstring
        for what that does and does not survive)."""
        line = self._submit_line(now, args) if op == "submit" else None
        if line is None:
            if op not in JOURNAL_OPS:  # what an entry checks, without building one
                raise ConfigurationError(f"unknown journal op {op!r}")
            line = _encode({"op": op, "now": now, **args}) + "\n"
        if self._group is not None and op != "checkpoint":
            self._group.append(line)
            return
        self._write()
        self._emit([line])
        if op == "checkpoint":  # only once it is in: a failed write keeps the last
            self._checkpoint = (
                len(self._lines) - 1
                if self._lines is not None
                else self.path.stat().st_size - len(line.encode())  # type: ignore[union-attr]
            )

    def _submit_line(self, now: float, args: dict[str, Any]) -> str | None:
        """The line :func:`_encode` writes for a ``submit`` entry, from a template;
        ``None`` when it cannot render it exactly: other keywords or order (a
        profile), a number not a finite ``float``, a port, rid or origin not an ``int``."""
        if tuple(args) != _SUBMIT_KEYS:
            return None
        rid, client, ingress, egress, volume, deadline, max_rate, origin = args.values()
        if not (
            type(rid) is type(ingress) is type(egress) is int
            and type(volume) is type(deadline) is type(max_rate) is type(now) is float
            and type(client) is str
            and (origin is None or type(origin) is int)
            # x - x is 0.0 for a finite float, a (true) nan for inf or nan.
            and not (volume - volume or deadline - deadline or max_rate - max_rate or now - now)
        ):
            return None
        return (
            f'{{"op": "submit", "now": {now!r}, "rid": {rid}, '
            f'"client": {_escape(client)}, "ingress": {ingress}, "egress": {egress}, '
            f'"volume": {volume!r}, "deadline": {deadline!r}, "max_rate": {max_rate!r}, '
            f'"origin": {"null" if origin is None else origin}}}\n'
        )

    @contextmanager
    def group(self) -> Iterator[None]:
        """Write the entries appended inside the ``with`` block together
        when it ends, as one ``write`` + ``flush()`` when backed (a no-op
        inside another group)."""
        if self._group is not None:
            yield
            return
        self._group = []
        try:
            yield
        finally:
            lines, self._group = self._group, None
            if lines:
                self._emit(lines)

    def _write(self) -> None:
        """Write what the open group holds so far (the group stays open)."""
        lines = self._group
        if lines:
            self._group = []
            self._emit(lines)

    def _emit(self, lines: list[str]) -> None:
        """Whole lines to the sink: the list, or the file as one ``write`` +
        ``flush()``; the count moves only once they are in."""
        if self._lines is not None:
            self._lines += lines
        else:
            appender = self._appender
            if appender is None:
                appender = self._appender = self.path.open("a")  # type: ignore[union-attr]
                if self._repair is not None:
                    appender.truncate(self._repair)
                    appender.write("\n")
                    self._repair = None
            appender.write("".join(lines))
            appender.flush()
        self._length += len(lines)

    def close(self) -> None:
        """Write what a group holds and release the append handle; a later
        :meth:`append` reopens it."""
        self._write()
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def __len__(self) -> int:
        return self._length + len(self._group or ())

    def __iter__(self) -> Iterator[JournalEntry]:
        """Every entry, in order, decoded from the lines; a corrupt line
        raises ``ConfigurationError`` naming it."""
        return self._read()

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise header + entries as JSON lines."""
        lines = [json.dumps(self.header or {"format": JOURNAL_FORMAT})]
        lines.extend(json.dumps(entry.to_dict()) for entry in self)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> Journal:
        """Inverse of :meth:`to_jsonl` (minus a torn final line, if any): the
        lines held in memory, each decoded once here (undecodable text raises)."""
        complete = _complete(text.encode())
        start, header = _header(complete)
        journal = cls(header=header)
        held = journal._lines
        for line in complete[start:].decode().splitlines(keepends=True):
            if not line.isspace():
                JournalEntry.from_dict(json.loads(line))
                if line.startswith(CHECKPOINT_PREFIX):
                    journal._checkpoint = len(held)  # type: ignore[arg-type]
                held.append(line)  # type: ignore[union-attr]
        journal._length = len(held) - 1  # type: ignore[arg-type]
        return journal

    @classmethod
    def load(cls, path: str | Path) -> Journal:
        """Open a journal written by live appends (or :meth:`to_jsonl`) to
        go on appending to it.  Decodes only the header: the other lines
        are counted, and the last that starts a checkpoint is found from
        the end, in the file's bytes, without splitting it into lines."""
        data = Path(path).read_bytes()
        complete = _complete(data)
        start, header = _header(complete)
        journal = cls(header=header, path=path)
        # The lines after the header: one per newline, one more for a last
        # line without its newline, none for a blank one.
        lines = complete.count(b"\n", start) + (len(complete) > start and not complete.endswith(b"\n"))
        journal._length = lines - len(_BLANK.findall(complete, start - 1))
        journal._checkpoint = _last_checkpoint(complete, start)
        if not data.endswith(b"\n"):
            journal._repair = len(complete.rstrip(b"\n"))
        return journal


#: The C encoder ``json.dumps`` builds on every call, built once: the same
#: text without the per-call set-up (``None`` without the accelerator).
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", ", ", False, False, True,
)  # fmt: skip


def _encode(entry: dict[str, Any]) -> str:
    """``json.dumps(entry)`` (no circular-reference check: an entry is a tree)."""
    return "".join(_C_ENCODER(entry, 0)) if _C_ENCODER else json.dumps(entry)


#: How :func:`_encode` writes a string (``ensure_ascii``), quotes included.
_escape = json.encoder.encode_basestring_ascii

#: A ``submit`` entry's keywords as ``Gateway.submit`` passes them (no profile).
_SUBMIT_KEYS = ("rid", "client", "ingress", "egress", "volume", "deadline", "max_rate", "origin")


#: How every checkpoint line :meth:`Journal.append` writes begins.
CHECKPOINT_PREFIX = json.dumps({"op": "checkpoint"})[:-1]


def naming(rids: Iterable[int]) -> Callable[[str], bool]:
    """A test of whether an entry's line may name one of ``rids`` as its
    ``rid`` or ``origin``, read off the text (a superset; never true of a
    checkpoint)."""
    named = re.compile(f'"(?:rid|origin)": (?:{"|".join(map(str, rids))})[,}}]').search
    return lambda line: not line.startswith(CHECKPOINT_PREFIX) and named(line) is not None


def _header(data: bytes) -> tuple[int, dict[str, Any]]:
    """The first line of ``data`` that is not blank, as a ``/2`` journal
    header, and the offset just past it."""
    start = 0
    while True:
        end = data.find(b"\n", start) + 1 or len(data)
        if data[start:end].strip():
            break
        if end == len(data):
            raise ConfigurationError("empty journal")
        start = end
    header = json.loads(data[start:end])
    if header.get("format") != JOURNAL_FORMAT:
        raise ConfigurationError(
            f"not a {JOURNAL_FORMAT} journal (header format: {header.get('format')!r}); "
            "journals of another format version cannot be replayed"
        )
    return end, header


def _last_checkpoint(data: bytes, start: int) -> int | None:
    """The offset of the last line at or after ``start`` (where a line
    begins) that starts a checkpoint, if there is one."""
    at = data.rfind(b"\n" + CHECKPOINT_PREFIX.encode(), start - 1)
    return at + 1 if at >= 0 else None


#: A blank line, after the newline that ends the line before it.
_BLANK = re.compile(rb"\n[ \t\r\f\v]*(?=\n)")


def _torn(line: str | bytes) -> bool:
    """Does an unterminated last line fail to decode (a write cut short)?"""
    try:
        json.loads(line)
    except ValueError:
        return True
    return False


def _complete(data: bytes) -> bytes:
    """``data`` without a torn last line: one that neither ends in a
    newline nor decodes (a final line that lacks only its newline stays)."""
    if data.endswith(b"\n"):
        return data
    head, newline, tail = data.rpartition(b"\n")
    return head + newline if _torn(tail) else data
