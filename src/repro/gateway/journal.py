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

Reading a journal back costs what a restart needs, not the history:
:meth:`Journal.load` decodes the header, the last complete checkpoint and
every line after it, which :meth:`Journal.last_checkpoint` hands to
``Gateway.resume``.  The lines before the checkpoint stay undecoded text
until the first full read of :attr:`Journal.entries` (``Gateway.replay``,
explain, ``check_gateway(journal=...)``, :meth:`Journal.to_jsonl`,
iteration); ``len()`` and :meth:`Journal.append` never force it.

Serialisation is JSON lines: the header object on the first line, one
operation object per subsequent line (see ``docs/FAULTS.md`` for the
format).  Appends are O(1); nothing is ever rewritten.

Flush policy of a file-backed journal: one append handle, opened by the
first append and kept until :meth:`Journal.close`; every entry is written
and ``flush()``-ed to the operating system before ``append`` returns, so
it is write-ahead against a crash of this process (``kill -9`` included)
and a concurrent reader sees it at once.  There is no ``fsync``: an entry
the OS had not yet written back is lost with the machine.

A write cut short (full disk, machine crash) leaves a final line with no
``\n``.  Write-ahead order means that operation was never applied or
acknowledged, so :meth:`Journal.from_jsonl` drops such a line when it
does not decode, and a :meth:`Journal.load`-ed journal cuts the file back
to its last complete line before its first new append.  Undecodable text
anywhere else is corruption and raises: at load when it lies at or after
the last checkpoint, and at the first full read — as a
``ConfigurationError`` naming the line — when it lies before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator, Mapping
from typing import IO, Any

from ..core.errors import ConfigurationError
from .lifecycle import JOURNAL_OPS

__all__ = ["Journal", "JournalEntry", "JOURNAL_FORMAT"]

#: Format tag written to (and required in) every journal header.  ``/2``
#: is one op vocabulary for every plane; ``/1`` gateway journals spelled
#: theirs with a prefix and cannot be replayed.
JOURNAL_FORMAT: str = "repro-journal/2"

#: Operations a journal may contain.
_KNOWN_OPS = JOURNAL_OPS


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One journaled operation: its name, gateway time, and arguments."""

    op: str
    now: float
    args: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.op not in _KNOWN_OPS:
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
    write-ahead behaviour a crash-recovery log needs.

    A journal read back with :meth:`load` / :meth:`from_jsonl` keeps the
    lines before its last checkpoint as undecoded text until the first
    read of :attr:`entries` (iteration, :meth:`to_jsonl`) needs them;
    ``len()``, :meth:`append` and :meth:`last_checkpoint` never do.
    """

    def __init__(
        self,
        header: dict[str, Any] | None = None,
        entries: list[JournalEntry] | None = None,
        path: str | Path | None = None,
    ) -> None:
        self.header: dict[str, Any] = header if header is not None else {}
        self._entries: list[JournalEntry] = entries if entries is not None else []
        #: Index in ``_entries`` of the last ``checkpoint``, if any.
        self._checkpoint: int | None = None
        for k, entry in enumerate(self._entries):
            if entry.op == "checkpoint":
                self._checkpoint = k
        #: Undecoded lines (blank ones included) that precede ``_entries``;
        #: the first is line ``_first_line`` of the text, and ``_pending``
        #: of them are not blank.
        self._lines: list[str] = []
        self._first_line = 0
        self._pending = 0
        self.path: Path | None = Path(path) if path is not None else None
        #: The append handle on ``path``, open from the first append to
        #: :meth:`close` (re-point ``path`` only on a closed journal).
        self._appender: IO[str] | None = None
        #: Set by :meth:`load` when the file does not end in a newline: where
        #: its last good line ends.  The first new append cuts the file there
        #: and supplies the newline, so that it starts on a line of its own.
        self._repair: int | None = None

    @property
    def entries(self) -> list[JournalEntry]:
        """Every entry, in order.  The first read decodes the lines that
        :meth:`load` left as text; a corrupt one raises
        ``ConfigurationError`` naming its line, here and on every later
        read."""
        if self._lines:
            self._decode_lines()
        return self._entries

    def _decode_lines(self) -> None:
        decoded: list[JournalEntry] = []
        for number, line in enumerate(self._lines, start=self._first_line):
            if not line.strip():
                continue
            try:
                decoded.append(JournalEntry.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                where = f"journal {self.path}" if self.path is not None else "journal"
                raise ConfigurationError(f"{where}, line {number}: {exc}") from exc
        self._entries[:0] = decoded
        if self._checkpoint is not None:
            self._checkpoint += len(decoded)
        self._lines, self._pending = [], 0

    def last_checkpoint(self) -> tuple[JournalEntry, list[JournalEntry]] | None:
        """The last ``checkpoint`` entry and the entries after it (what
        ``Gateway.resume`` applies), or ``None`` when there is none.
        Decodes nothing: a loaded journal decoded exactly these."""
        k = self._checkpoint
        if k is None:
            return None
        return self._entries[k], self._entries[k + 1 :]

    # ------------------------------------------------------------------
    def set_header(self, header: Mapping[str, Any]) -> None:
        """Record the gateway configuration; rewrites the file when backed."""
        self.header = {"format": JOURNAL_FORMAT, **dict(header)}
        if self.path is not None:
            self.close()
            self._repair = None
            with self.path.open("w") as fh:
                fh.write(json.dumps(self.header) + "\n")
                for entry in self.entries:
                    fh.write(json.dumps(entry.to_dict()) + "\n")

    def append(self, op: str, now: float, **args: Any) -> JournalEntry:
        """Append one operation; written and flushed before returning when
        backed (see the module docstring for what that does and does not
        survive)."""
        entry = JournalEntry(op=op, now=now, args=args)
        self._entries.append(entry)
        if op == "checkpoint":
            self._checkpoint = len(self._entries) - 1
        if self.path is not None:
            appender = self._appender
            if appender is None:
                appender = self._appender = self.path.open("a")
                if self._repair is not None:
                    appender.truncate(self._repair)
                    appender.write("\n")
                    self._repair = None
            appender.write(json.dumps(entry.to_dict()) + "\n")
            appender.flush()
        return entry

    def close(self) -> None:
        """Release the append handle; a later :meth:`append` reopens it."""
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def __len__(self) -> int:
        return self._pending + len(self._entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise header + entries as JSON lines."""
        lines = [json.dumps(self.header or {"format": JOURNAL_FORMAT})]
        lines.extend(json.dumps(entry.to_dict()) for entry in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> Journal:
        """Inverse of :meth:`to_jsonl` (minus a torn final line, if any).

        Decodes the header, the last checkpoint and every line after it —
        undecodable text there raises here; the lines before the
        checkpoint wait for the first read of :attr:`entries`.
        """
        lines = _complete(text).splitlines()
        first = next((k for k, line in enumerate(lines) if line.strip()), None)
        if first is None:
            raise ConfigurationError("empty journal")
        header = json.loads(lines[first])
        if header.get("format") != JOURNAL_FORMAT:
            raise ConfigurationError(
                f"not a {JOURNAL_FORMAT} journal (header format: {header.get('format')!r}); "
                "journals of another format version cannot be replayed"
            )
        tail: list[JournalEntry] = []
        cut = len(lines)
        while cut > first + 1:
            cut -= 1
            if lines[cut].strip():
                tail.append(JournalEntry.from_dict(json.loads(lines[cut])))
                if tail[-1].op == "checkpoint":
                    break
        tail.reverse()
        journal = cls(header=header, entries=tail)
        journal._lines = lines[first + 1 : cut]
        journal._first_line = first + 2
        journal._pending = sum(1 for line in journal._lines if line.strip())
        return journal

    @classmethod
    def load(cls, path: str | Path) -> Journal:
        """Read a journal written by live appends (or :meth:`to_jsonl`)."""
        text = Path(path).read_text()
        journal = cls.from_jsonl(text)
        journal.path = Path(path)
        if not text.endswith("\n"):
            journal._repair = len(_complete(text).rstrip("\n").encode())
        return journal


def _complete(text: str) -> str:
    """``text`` without a torn last line: one that neither ends in a
    newline nor decodes (a final line that lacks only its newline stays)."""
    if text.endswith("\n"):
        return text
    head, newline, tail = text.rpartition("\n")
    try:
        json.loads(tail)
    except json.JSONDecodeError:
        return head + newline
    return text
