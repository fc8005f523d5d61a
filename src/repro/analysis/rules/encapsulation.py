"""GL004 — owned state and protocol verbs are touched only by their owners.

Paper Eq. 1 (no port over capacity) and journal replay both rest on
single-writer arguments: capacity state changes only through
:meth:`Port.add <repro.core.ledger.Port.add>`, a shard broker's port and
hold tables only through the broker, reservation lifecycle stamps only
through :func:`repro.gateway.lifecycle.terminate`, and broker protocol
messages travel only over the coordinator's channels.  One owner table
names each protected name and the modules (path suffixes; a suffix
ending in ``/`` owns a whole package) that may touch it.  Everywhere else
the rule flags, once per statement part:

- an assignment (plain, augmented, annotated, subscripted) whose target
  chain passes through a protected attribute — ``ledger._ingress[0] =
  tl``, ``reservation.cancelled_at = t``, ``broker._holds[h] = hold``;
- a mutating call (``add`` / ``add_batch`` / ``book`` / ``degrade`` and
  the dict mutators) whose receiver chain passes through one —
  ``port.usage.add(...)`` books capacity no Eq. 1 probe saw,
  ``broker._ports[k].degrade(...)`` shrinks a port its broker never
  journaled;
- a protocol verb (``prepare`` / ``commit`` / ``abort_hold`` /
  ``book_pair``) called on a chain with broker evidence (a name or
  attribute containing ``broker``).  Chaos-off admission books directly
  from ``gateway/twophase.py`` by design; anywhere else such a call is a
  message no fault can drop and no idempotency key guards, so route it
  through :class:`repro.gateway.rpc.Channel`.

A chain reaching two protected names is reported once, at the first one
whose owners exclude the module.  Reads are never flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import ClassVar

from ..engine import Finding, Module, Rule

__all__ = ["LedgerEncapsulationRule"]

_LEDGER = ("core/ledger.py",)
_BROKER = ("gateway/broker.py", "gateway/twophase.py")

#: The two-phase protocol verbs: rows touched by calling them on a broker.
_VERBS = frozenset({"prepare", "commit", "abort_hold", "book_pair"})

#: Protected name → path suffixes of the modules allowed to touch it.
_OWNERS: dict[str, tuple[str, ...]] = {
    # PortLedger's port lists and a Port's usage/reduction profiles.
    "_ingress": _LEDGER,
    "_egress": _LEDGER,
    "usage": _LEDGER,
    "reductions": _LEDGER,
    # A shard broker's port table and two-phase hold table.
    "_ports": _BROKER,
    "_holds": _BROKER,
    # Reservation lifecycle stamps (the gateway's verbs call terminate).
    "cancelled_at": ("gateway/lifecycle.py",),
    "aborted_at": ("gateway/lifecycle.py",),
    "displaced_at": ("gateway/lifecycle.py",),
    # Capacity-kernel query caches (the arrays themselves are GL009's).
    "_peak": ("core/capacity/",),
    "_suffix": ("core/capacity/",),
    "_rmq": ("core/capacity/",),
    # The protocol verbs, spoken directly only by the protocol internals.
    **dict.fromkeys(_VERBS, (*_BROKER, "gateway/rpc.py")),
}

#: Calls that mutate a profile, a port or a table they are made through.
_MUTATORS = frozenset(
    {"add", "add_batch", "book", "degrade", "pop", "popitem", "clear", "update", "setdefault"}
)


def _owned(module: Module, name: str) -> bool:
    return any(
        suffix in module.relpath if suffix.endswith("/") else module.relpath.endswith(suffix)
        for suffix in _OWNERS[name]
    )


def _chain(node: ast.expr, *, root: bool = False) -> Iterator[str]:
    """Attribute names of an access chain, outermost first, through calls
    and subscripts: ``broker._ports[k].usage`` → ``usage``, ``_ports``
    (then ``broker`` if ``root``)."""
    current: ast.expr = node
    while True:
        if isinstance(current, ast.Attribute):
            yield current.attr
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        else:
            if root and isinstance(current, ast.Name):
                yield current.id
            return


def _foreign(module: Module, node: ast.expr) -> str | None:
    """The first protected state attribute on the chain this module does not own."""
    return next(
        (
            name
            for name in _chain(node)
            if name in _OWNERS and name not in _VERBS and not _owned(module, name)
        ),
        None,
    )


def _assignment_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


class LedgerEncapsulationRule(Rule):
    """Flag writes to owned state, and broker protocol calls, outside their owners."""

    rule_id: ClassVar[str] = "GL004"
    title: ClassVar[str] = "ledger-encapsulation"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/", "benchmarks/")

    def _finding(
        self,
        module: Module,
        node: ast.AST,
        what: str,
        name: str,
        why: str = "bypasses its single writer; go through the owning API",
    ) -> Finding:
        return self.finding(module, node, f"{what} outside {' / '.join(_OWNERS[name])} {why}")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _VERBS and not _owned(module, method):
                    evidence = next(
                        (n for n in _chain(node.func.value, root=True) if "broker" in n.lower()),
                        None,
                    )
                    if evidence is not None:
                        yield self._finding(
                            module,
                            node,
                            f"direct {method}() on {evidence}",
                            method,
                            "bypasses the chaos channel; route it through "
                            "repro.gateway.rpc.Channel",
                        )
                elif method in _MUTATORS:
                    name = _foreign(module, node.func.value)
                    if name is not None:
                        yield self._finding(module, node, f"call {name}.{method}()", name)
            for target in _assignment_targets(node):
                name = _foreign(module, target)
                if name is not None:
                    yield self._finding(module, node, f"write through .{name}", name)
