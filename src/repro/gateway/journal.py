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
anywhere else is corruption and raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass
class Journal:
    """An append-only log of gateway operations plus a config header.

    ``header`` is written by the gateway on attach (platform, policy,
    backlog limit); entries accumulate via :meth:`append`.  An optional
    ``path`` turns every append into an immediate JSONL write — the
    write-ahead behaviour a crash-recovery log needs.
    """

    header: dict[str, Any] = field(default_factory=dict)
    entries: list[JournalEntry] = field(default_factory=list)
    path: Path | None = None
    #: The append handle on ``path``, open from the first append to
    #: :meth:`close` (re-point ``path`` only on a closed journal).
    _appender: IO[str] | None = field(default=None, init=False, repr=False, compare=False)
    #: Set by :meth:`load` when the file does not end in a newline: where
    #: its last good line ends.  The first new append cuts the file there
    #: and supplies the newline, so that it starts on a line of its own.
    _repair: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)

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
        self.entries.append(entry)
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
        return len(self.entries)

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
        """Inverse of :meth:`to_jsonl` (minus a torn final line, if any)."""
        lines = [line for line in _complete(text).splitlines() if line.strip()]
        if not lines:
            raise ConfigurationError("empty journal")
        header = json.loads(lines[0])
        if header.get("format") != JOURNAL_FORMAT:
            raise ConfigurationError(
                f"not a {JOURNAL_FORMAT} journal (header format: {header.get('format')!r}); "
                "journals of another format version cannot be replayed"
            )
        journal = cls(header=header)
        journal.entries = [JournalEntry.from_dict(json.loads(line)) for line in lines[1:]]
        return journal

    def save(self, path: str | Path) -> None:
        """Write the whole journal to ``path`` (JSONL)."""
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path) -> Journal:
        """Read a journal previously written by :meth:`save` (or live appends)."""
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
