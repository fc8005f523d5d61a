"""GL006 — objects handed to ``journal.append`` are frozen from then on.

The journal is a write-ahead log: replay assumes each entry's arguments
still describe the operation exactly as it was applied.  Mutating an
object *after* it was passed to ``journal.append(...)`` (or the gateway's
``_record`` wrapper) makes the in-memory history diverge from the
serialised one — the recovered gateway replays arguments the original
never saw.

Within each function body the rule tracks the names passed (positionally,
by keyword, or inside list/tuple/dict/set literals) to a journal append
and flags any later statement that mutates them: attribute or subscript
assignment, augmented assignment, ``del``, or a call of a known mutating
method (``append``, ``update``, ``sort`` …).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import dotted_name

__all__ = ["JournalSafetyRule"]

#: Method names whose call mutates the receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
}


def _is_journal_append(call: ast.Call) -> bool:
    """``<...>journal.append(...)``, ``<...>_journal.append(...)`` or ``<...>._record(...)``."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    if parts[-1] == "append" and len(parts) >= 2 and "journal" in parts[-2].lower():
        return True
    return parts[-1] == "_record"


def _argument_names(call: ast.Call) -> Iterator[str]:
    values: list[ast.expr] = list(call.args)
    values.extend(kw.value for kw in call.keywords)
    for value in values:
        for node in ast.walk(value):
            if isinstance(node, ast.Name):
                yield node.id


def _mutations(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(mutated name, offending node) pairs found inside ``node``."""
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif isinstance(sub, ast.Delete):
            targets = list(sub.targets)
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                root = func.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name):
                    yield root.id, sub
            continue
        for target in targets:
            # Only writes *through* a name mutate the object it refers to;
            # rebinding the bare name (x = ...) is fine.
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name):
                    yield root.id, sub


class JournalSafetyRule(Rule):
    """Flag post-append mutation of journaled arguments."""

    rule_id: ClassVar[str] = "GL006"
    title: ClassVar[str] = "journal-safety"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/", "gateway/journal.py")

    def check(self, module: Module) -> Iterable[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            journaled: dict[str, int] = {}  # name -> line it was journaled on
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and _is_journal_append(node):
                    for name in _argument_names(node):
                        journaled.setdefault(name, node.lineno)
            if not journaled:
                continue
            for name, node in _mutations(func):
                recorded_at = journaled.get(name)
                if recorded_at is None or node.lineno <= recorded_at:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{name} is mutated after being journaled on line "
                    f"{recorded_at}; replay would see different arguments — "
                    "journal a snapshot or mutate before appending",
                )
