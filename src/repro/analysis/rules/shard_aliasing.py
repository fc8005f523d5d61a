"""GL014 — broker-owned mutable state must not escape its shard.

The ROADMAP's process-per-shard item only works if each shard broker is
the *sole* writer of its ledger and hold table (the
GL008 single-writer discipline, upgraded to aliasing).  A method that
returns ``self._holds`` itself, stores it on another object, or passes
it to an external callable hands out a mutable alias: a second shard —
or, post-multiprocess, a second interpreter — can then mutate state the
owner believes is private, and the two copies silently diverge.

Scope: classes on the shard plane — name contains ``Broker``, ``Shard``,
``Gateway`` or ``Coordinator``.  Sim/obs/core infrastructure is
single-interpreter by design and shares containers freely; the aliasing
discipline only binds where state is slated to cross a process boundary.
Within a scoped class, every attribute ``__init__`` binds to a mutable
container literal or constructor (``{}``, ``[]``, ``dict()``,
``defaultdict(...)``, …) is owned.  Reads stay quiet — ``self._holds[k]``,
``self._holds.items()``, ``k in self._holds``, borrow-only stdlib calls
(``heappush(self._heap, …)``, ``zip(self.brokers, …)``) and eager-copy
escapes (``dict(self._holds)``, ``sorted(self._booked)``) are how state
is *supposed* to be touched or leave the shard.  Only genuine alias
handoffs fire:

- ``return self._holds`` / ``yield self._holds`` (bare, or inside a
  tuple/list/dict literal) — the caller now holds the live container;
- ``other.attr = self._holds`` / ``registry[k] = self._holds`` — stored
  outside the owner;
- ``external(self._holds)`` — passed, uncopied, to a callable that is
  neither an eager copy builtin nor a method on ``self``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import terminal_name

__all__ = ["ShardAliasingRule"]

#: Constructors whose call in ``__init__`` marks an attribute as owned
#: mutable state.
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Class-name fragments marking the shard plane — the classes whose state
#: must survive a move to process-per-shard (ROADMAP).
_SHARD_CLASS_MARKERS = ("Broker", "Shard", "Gateway", "Coordinator")

#: Callables that eagerly copy (or merely measure) their argument — the
#: sanctioned ways owned state crosses the shard boundary.
_COPY_BUILTINS = frozenset(
    {
        "dict",
        "list",
        "set",
        "tuple",
        "sorted",
        "frozenset",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "bool",
        "str",
        "repr",
        "copy",
        "deepcopy",
        "Counter",
    }
)

#: Stdlib callables that *borrow* their argument for the duration of the
#: call without retaining a reference — in-place heap/bisect operations
#: run by the owner, and lazy iterators consumed locally.
_BORROW_ONLY = frozenset(
    {
        "heappush",
        "heappop",
        "heapify",
        "heapreplace",
        "heappushpop",
        "bisect",
        "bisect_left",
        "bisect_right",
        "insort",
        "insort_left",
        "insort_right",
        "zip",
        "map",
        "filter",
        "iter",
        "next",
        "enumerate",
        "reversed",
        "chain",
        "join",
        "isinstance",
    }
)

#: Expression wrappers traversal looks *through* on the way to a verdict
#: (putting the alias in a tuple does not copy it).
_TRANSPARENT = (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred, ast.IfExp)


def _is_mutable_init(value: ast.expr) -> bool:
    if isinstance(value, ast.Dict | ast.List | ast.Set):
        return True
    if isinstance(value, ast.ListComp | ast.SetComp | ast.DictComp):
        return True
    if isinstance(value, ast.Call):
        return terminal_name(value.func) in _MUTABLE_CTORS
    return False


def _owned_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes ``__init__`` binds to fresh mutable containers."""
    owned: set[str] = set()
    for stmt in cls.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign | ast.AnnAssign):
                continue
            value = node.value
            if value is None or not _is_mutable_init(value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    owned.add(target.attr)
    return owned


def _is_self_call(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


def _stores_outside_self(stmt: ast.Assign) -> bool:
    for target in stmt.targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Attribute | ast.Subscript):
                base = node.value
                if not (isinstance(base, ast.Name) and base.id == "self"):
                    return True
    return False


class ShardAliasingRule(Rule):
    """Flag mutable broker-owned state escaping the owning shard."""

    rule_id: ClassVar[str] = "GL014"
    title: ClassVar[str] = "shard-owned-no-alias"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/", "benchmarks/")

    def check(self, module: Module) -> Iterable[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef) and any(
                marker in cls.name for marker in _SHARD_CLASS_MARKERS
            ):
                owned = _owned_attrs(cls)
                if owned:
                    yield from self._check_class(module, cls, owned, parents)

    # ------------------------------------------------------------------
    def _check_class(
        self,
        module: Module,
        cls: ast.ClassDef,
        owned: set[str],
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in owned
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                continue
            verdict = self._escape_of(node, parents)
            if verdict is not None:
                yield self.finding(
                    module,
                    node,
                    f"owned mutable state self.{node.attr} of {cls.name} "
                    f"{verdict}; hand out an eager copy (dict()/sorted()) — "
                    "a live alias breaks single-writer shard ownership",
                )

    @staticmethod
    def _escape_of(
        node: ast.Attribute, parents: dict[ast.AST, ast.AST]
    ) -> str | None:
        """How ``self.<attr>`` escapes here, or ``None`` when it does not."""
        child: ast.AST = node
        while True:
            parent = parents.get(child)
            if parent is None:
                return None
            # Read-throughs: self.x[k], self.x.items(), k in self.x, …
            if isinstance(parent, ast.Attribute | ast.Subscript):
                return None
            if isinstance(parent, ast.Call):
                if child is parent.func:
                    return None
                name = terminal_name(parent.func)
                if (
                    name in _COPY_BUILTINS
                    or name in _BORROW_ONLY
                    or _is_self_call(parent.func)
                ):
                    return None
                return f"is passed uncopied to {name or 'a callable'}()"
            if isinstance(parent, ast.Return):
                return "is returned as a live alias"
            if isinstance(parent, ast.Yield | ast.YieldFrom):
                return "is yielded as a live alias"
            if isinstance(parent, ast.Assign):
                if child is not parent.value and child not in parent.targets:
                    # Part of a target chain already handled as read-through.
                    return None
                if child is parent.value and _stores_outside_self(parent):
                    return "is stored outside the owning object"
                return None
            if isinstance(parent, _TRANSPARENT) or isinstance(parent, ast.keyword):
                child = parent
                continue
            # Comparisons, boolean tests, iteration headers, arithmetic,
            # f-strings: reads that derive new values — not aliases.
            return None
