"""GL009 — capacity-profile internals stay inside the kernel package.

The capacity kernel (:mod:`repro.core.capacity`) is the one place that
stores per-port bandwidth profiles; the production class and the
reference oracle both keep their state in ``_breakpoints`` / ``_values``
pairs.  Everything above the kernel talks to the
:class:`~repro.core.capacity.CapacityProfile` interface — range add,
range max/min, integral, segment iteration.  Code that reaches into the
arrays directly (``timeline._values[i] += bw``) silently bypasses
coalescing and the cached peak.  Likewise, nothing outside the kernel
names a concrete class: profiles come from
:func:`~repro.core.capacity.make_profile`, which builds the one
production class, and ``VectorProfile`` is the reference implementation
the equivalence fuzz compares it against — ``src/`` never builds it.

The same single-owner discipline covers the malleable-transfer kernel:
:class:`~repro.core.profile.RateProfile` keeps its normalized segment
tuple in ``_segments``, and everything outside :mod:`repro.core` reads it
through ``.segments`` / ``to_list()`` and derives new shapes through the
surgery verbs — raw access would skip :meth:`RateProfile.normalize` and
its volume-conservation guarantees.

The rule flags, outside each attribute's owning package:

- any attribute access (read *or* write) named ``_breakpoints`` or
  ``_values`` (owner ``repro/core/capacity/``) or ``_segments``
  (owner ``repro/core/``);
- any direct call of ``BreakpointProfile`` / ``VectorProfile``.

Ownership is by path fragment, mirroring GL004/GL008, so fixture trees
that mirror the layout exercise the rule too.  Tests and benchmarks are
allowlisted: the equivalence suites construct both classes on purpose.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import terminal_name

__all__ = ["TimelineInternalsRule"]

#: Kernel-private attribute → path fragment of its owning package.
_INTERNAL_ATTRS: dict[str, str] = {
    "_breakpoints": "core/capacity/",
    "_values": "core/capacity/",
    # RateProfile's normalized segment tuple: owned by repro.core as a
    # whole (profile surgery and the booking/ledger kernels live there).
    "_segments": "core/",
}

#: Concrete profile classes that must not be constructed directly.
_BACKEND_CLASSES = ("BreakpointProfile", "VectorProfile")

#: Path fragment owning the profile classes (the kernel package itself).
_OWNER_FRAGMENT = "core/capacity/"


def _call_name(func: ast.expr) -> str | None:
    """The terminal name of a call target: ``m.VectorProfile`` → that."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class TimelineInternalsRule(Rule):
    """Flag access to capacity-profile internals outside the kernel."""

    rule_id: ClassVar[str] = "GL009"
    title: ClassVar[str] = "timeline-internals"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/", "benchmarks/")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr in _INTERNAL_ATTRS:
                fragment = _INTERNAL_ATTRS[node.attr]
                if fragment in module.relpath:
                    continue
                owner = terminal_name(node.value)
                yield self.finding(
                    module,
                    node,
                    f"access to {owner or '<expr>'}.{node.attr} outside "
                    f"{fragment} bypasses the owning kernel's interface; "
                    "use add/max_usage/segments/... instead",
                )
            elif isinstance(node, ast.Call) and _OWNER_FRAGMENT not in module.relpath:
                name = _call_name(node.func)
                if name in _BACKEND_CLASSES:
                    yield self.finding(
                        module,
                        node,
                        f"direct construction of {name} outside the capacity "
                        "kernel; build profiles via make_profile() "
                        "(VectorProfile is the tests' reference oracle)",
                    )
