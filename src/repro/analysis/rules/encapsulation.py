"""GL004 — ledger and reservation internals are written only by their owners.

Every capacity decision must flow through :class:`repro.core.ledger.PortLedger`
(allocate/release/degrade) and the booking helpers of
:mod:`repro.core.booking`; reservation lifecycle stamps are set only by
:func:`repro.control.lifecycle.terminate`, which both admission planes
call.  An out-of-band write — ``ledger._ingress[i] = ...``,
``reservation.cancelled_at = t`` from a scheduler — bypasses the Eq. 1
capacity checks and desynchronises journal replay from reality.

The rule flags assignments (plain, augmented, or subscripted) to the known
internal attributes outside their owning modules, and mutating calls
(``add`` / ``add_batch`` / ``book``) made through a port's ``usage`` or
``reductions`` profile outside :mod:`repro.core.ledger`: a
``port.usage.add(...)`` books capacity no Eq. 1 probe saw, a
``port.usage.book(...)`` one the port's degradations never saw, and
:meth:`Port.add <repro.core.ledger.Port.add>` is the one writer.
Ownership is by path suffix, so fixture trees mirroring the layout
exercise the rule too.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import terminal_name

__all__ = ["LedgerEncapsulationRule"]

#: attribute → path suffixes of the modules allowed to write it.
_PROTECTED: dict[str, tuple[str, ...]] = {
    # PortLedger's port lists and a Port's usage/reduction profiles (slots
    # of repro.core.ledger; a shard broker holds Ports and goes through them).
    "_ingress": ("core/ledger.py", "core/booking.py"),
    "_egress": ("core/ledger.py", "core/booking.py"),
    "usage": ("core/ledger.py",),
    "reductions": ("core/ledger.py",),
    # Reservation lifecycle stamps (owned by the lifecycle core both
    # admission planes — the service and the gateway — call).
    "cancelled_at": ("control/lifecycle.py",),
    "aborted_at": ("control/lifecycle.py",),
    "displaced_at": ("control/lifecycle.py",),
    # Capacity-kernel query caches (slots of the profile classes; the
    # array internals themselves are GL009's to guard).
    "_peak": ("core/capacity/",),
    "_suffix": ("core/capacity/",),
    "_rmq": ("core/capacity/",),
    # RateProfile's normalized segment tuple (slot of repro.core.profile).
    # Stepwise profiles are immutable by construction; a write from above
    # the core skips normalize() and breaks volume conservation — callers
    # use the surgery verbs (shift/head_until/tail_from/concat) instead.
    "_segments": ("core/",),
}


#: Calls that mutate a capacity profile reached through ``usage`` /
#: ``reductions``.
_PROFILE_MUTATORS = frozenset({"add", "add_batch", "book"})


def _owned(module: Module, owners: tuple[str, ...]) -> bool:
    # Owner suffixes ending in "/" own a whole package.
    return any(
        suffix in module.relpath if suffix.endswith("/") else module.relpath.endswith(suffix)
        for suffix in owners
    )


def _assignment_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


class LedgerEncapsulationRule(Rule):
    """Flag out-of-band writes to PortLedger/Reservation internals."""

    rule_id: ClassVar[str] = "GL004"
    title: ClassVar[str] = "ledger-encapsulation"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/",)

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PROFILE_MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in ("usage", "reductions")
                and not _owned(module, _PROTECTED[node.func.value.attr])
            ):
                yield self.finding(
                    module,
                    node,
                    f"call {node.func.value.attr}.{node.func.attr}() outside core/ledger.py "
                    "bypasses the Eq. 1 probe; go through Port.add",
                )
            for target in _assignment_targets(node):
                # Unwrap subscript writes: ledger._ingress[i] = tl.
                inner = target.value if isinstance(target, ast.Subscript) else target
                if not isinstance(inner, ast.Attribute):
                    continue
                attr = inner.attr
                owners = _PROTECTED.get(attr)
                if owners is None or _owned(module, owners):
                    continue
                # Class-body definitions (dataclass fields) are declarations,
                # not writes on a foreign object.
                owner_name = terminal_name(inner.value)
                yield self.finding(
                    module,
                    node,
                    f"write to {owner_name or '<expr>'}.{attr} outside "
                    f"{' / '.join(owners)} bypasses the capacity/lifecycle "
                    "invariants; go through the owning API",
                )
