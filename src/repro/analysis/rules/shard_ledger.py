"""GL008 — a shard-owned ledger is mutated only by its broker.

The gateway's no-overcommit guarantee rests on single-writer ownership:
each :class:`repro.gateway.broker.ShardBroker` is the *only* writer of
its port table (``_ports``: one :class:`repro.core.ledger.Port` per owned
access point) and its two-phase hold table (``_holds``); everyone else —
the coordinator, the facade, benchmarks — goes through the broker's public
surface (``book_pair`` / ``prepare`` / ``commit`` / ``abort_hold`` /
``release`` / ``degrade``), where ownership is asserted.  An out-of-band
write —
``broker._ports[side, p].usage.add(...)`` from a scheduler, or replacing
``broker._holds`` wholesale — books capacity no admission check ever saw
and desynchronises crash replay.

The rule flags, outside the broker module (and, for hold bookkeeping,
the two-phase commit path):

- assignments (plain, augmented, subscripted) to ``_ports`` or ``_holds``
  attributes;
- mutating calls (``add`` / ``add_batch`` / ``degrade`` / dict mutators)
  on an attribute chain passing through either.

Ownership is by path suffix, mirroring GL004, so fixture trees that
mirror the layout exercise the rule too.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import terminal_name

__all__ = ["ShardLedgerRule"]

#: The broker-private state GL008 guards.
_GUARDED = ("_ports", "_holds")

#: Modules allowed to touch it (path suffixes).
_OWNERS: tuple[str, ...] = ("gateway/broker.py", "gateway/twophase.py")

#: Method names that mutate a port, its profiles or a hold table.
_MUTATORS = frozenset(
    {
        "degrade",
        "add",
        "add_batch",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
    }
)


def _assignment_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _chain_guarded(node: ast.expr) -> str | None:
    """The guarded attribute an access chain passes through, if any.

    ``broker._ports[side, p].usage.add`` → ``_ports``;
    ``self._holds[hold_id]`` → ``_holds``; plain locals → ``None``.
    """
    current: ast.expr = node
    while True:
        if isinstance(current, ast.Attribute):
            if current.attr in _GUARDED:
                return current.attr
            current = current.value
        elif isinstance(current, (ast.Subscript, ast.Call)):
            current = current.value if isinstance(current, ast.Subscript) else current.func
        else:
            return None


class ShardLedgerRule(Rule):
    """Flag out-of-band mutation of a shard broker's owned state."""

    rule_id: ClassVar[str] = "GL008"
    title: ClassVar[str] = "shard-ledger-ownership"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/",)

    def check(self, module: Module) -> Iterable[Finding]:
        if any(module.relpath.endswith(suffix) for suffix in _OWNERS):
            return
        for node in ast.walk(module.tree):
            for target in _assignment_targets(node):
                guarded = _chain_guarded(target)
                if guarded is None:
                    continue
                owner = terminal_name(
                    target.value if isinstance(target, ast.Subscript) else target
                )
                yield self.finding(
                    module,
                    node,
                    f"assignment through {owner or '<expr>'} touches the "
                    f"broker-private {guarded}; only {' / '.join(_OWNERS)} may "
                    "mutate a shard's owned state — go through the broker API",
                )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in _MUTATORS:
                    continue
                guarded = _chain_guarded(node.func.value)
                if guarded is None:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"call {node.func.attr}() mutates the broker-private "
                    f"{guarded}; only {' / '.join(_OWNERS)} may mutate a "
                    "shard's owned state — go through the broker API",
                )
