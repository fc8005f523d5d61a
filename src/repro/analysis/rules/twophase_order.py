"""GL012 — 2PC verbs in protocol order, resolutions exactly once, rids fresh.

Three flavours of two-phase-commit misuse, all invisible to per-node AST
matching:

- **order** — ``commit``/``abort_hold`` issued on a channel no path has
  prepared on, inside a function that does prepare (a verb sequencing
  bug; resolving a hold the function never acquired);
- **double** — a hold resolved twice on one path without the ``key=``
  idempotency keyword: the second resolution is not replay-safe and
  double-frees capacity on the broker;
- **rid reuse** — a re-admission attempt built with ``rid=<other>.rid``.
  The rid is the broker-side idempotency key for ``(rid, side)``
  prepare records; reusing one across attempts makes the broker answer
  the retry from the *previous* attempt's recorded outcome, poisoning
  replay (every attempt must burn a fresh rid from the gateway counter).
  The malleable reshape path is the one sanctioned exception: its target
  request re-carves a *live* reservation in place — the rid never
  becomes a broker idempotency key (shaping is a read-only search and
  the re-commit is unkeyed), so ``_IN_PLACE_RESHAPERS`` names the
  functions where keeping the rid is the correct identity-preserving
  behaviour.

The first two come from the shared typestate fixpoint
(:mod:`repro.analysis.rules._protocol`); rid reuse is a reaching-
definitions query — ``rid=req.rid`` fires directly, and ``fresh = req.rid
… Request(rid=fresh)`` fires through the definition chain.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ..flow.cfg import CFG, function_cfgs, stmt_exprs
from ..flow.solver import reaching_definitions
from ._common import terminal_name
from ._protocol import twophase_results

__all__ = ["TwoPhaseOrderRule"]

#: Callables that build a (re-)admission attempt and accept ``rid=``.
_ATTEMPT_BUILDERS = frozenset({"Request", "replace"})

#: Functions that re-carve a live reservation in place (same identity,
#: new shape) — their target Request deliberately keeps the rid and never
#: crosses a keyed broker channel, so rid-reuse does not apply.
_IN_PLACE_RESHAPERS = frozenset({"reshape_tail"})


def _rid_attribute(expr: ast.expr) -> str | None:
    """The source object's name when ``expr`` is an ``<obj>.rid`` read."""
    if isinstance(expr, ast.Attribute) and expr.attr == "rid":
        return terminal_name(expr.value) or "<expr>"
    return None


class TwoPhaseOrderRule(Rule):
    """Flag 2PC verb misordering, unkeyed doubles, and rid reuse."""

    rule_id: ClassVar[str] = "GL012"
    title: ClassVar[str] = "twophase-typestate"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = ("tests/", "benchmarks/")

    def check(self, module: Module) -> Iterable[Finding]:
        yield from self._typestate_findings(module)
        yield from self._rid_reuse_findings(module)

    # ------------------------------------------------------------------
    def _typestate_findings(self, module: Module) -> Iterator[Finding]:
        for cfg, events in twophase_results(module):
            for event in events:
                if event.kind == "order":
                    yield self.finding(
                        module,
                        None,
                        f"resolution verb on {event.receiver!r} in {cfg.name}() "
                        "with no prepare() on any incoming path — 2PC verbs "
                        "must follow prepare → commit/abort_hold order",
                        line=event.line,
                    )
                elif event.kind == "double":
                    yield self.finding(
                        module,
                        None,
                        f"hold {event.var!r} resolved twice in {cfg.name}() "
                        "without an idempotency key= — the second resolution "
                        "double-frees broker capacity and is not replay-safe",
                        line=event.line,
                    )

    # ------------------------------------------------------------------
    def _rid_reuse_findings(self, module: Module) -> Iterator[Finding]:
        if not any(builder in module.source for builder in _ATTEMPT_BUILDERS):
            return
        for cfg in function_cfgs(module.tree):
            if cfg.name in _IN_PLACE_RESHAPERS:
                continue
            reaching = None  # solved lazily: most functions have no builder
            for node in cfg.stmt_nodes():
                if node.stmt is None:
                    continue
                for call in stmt_exprs(node.stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    if terminal_name(call.func) not in _ATTEMPT_BUILDERS:
                        continue
                    for keyword in call.keywords:
                        if keyword.arg != "rid":
                            continue
                        source = _rid_attribute(keyword.value)
                        if source is None and isinstance(keyword.value, ast.Name):
                            if reaching is None:
                                reaching = reaching_definitions(cfg)
                            source = self._via_defs(
                                cfg, reaching.before[node.nid], keyword.value.id
                            )
                        if source is not None:
                            yield self.finding(
                                module,
                                call,
                                f"re-admission attempt reuses rid from "
                                f"{source}.rid in {cfg.name}(); every attempt "
                                "must burn a fresh rid or (rid, side) "
                                "idempotency records poison the retry",
                            )

    @staticmethod
    def _via_defs(
        cfg: CFG, defs: frozenset[tuple[str, int]], name: str
    ) -> str | None:
        """Does some reaching definition of ``name`` read an ``.rid``?"""
        for var, def_nid in defs:
            if var != name:
                continue
            stmt = cfg.node(def_nid).stmt
            if isinstance(stmt, ast.Assign | ast.AnnAssign) and stmt.value is not None:
                source = _rid_attribute(stmt.value)
                if source is not None:
                    return source
        return None
