"""Generic forward worklist dataflow solver plus one library pass.

The solver is lattice-agnostic: an :class:`Analysis` supplies the
boundary state, the join, and a per-node transfer function; the solver
iterates to a fixpoint over a :class:`~repro.analysis.flow.cfg.CFG`,
propagating states from ``entry`` towards the exits.  States must be
immutable values with structural equality (frozensets of tuples
throughout this package) — convergence is detected by ``==``.

Edge sensitivity hooks keep the clients precise without complicating the
core loop:

- :meth:`Analysis.transfer_exc` produces the state carried by ``exc``
  edges (default: same as the normal transfer).  Typestate uses it to
  model partial execution — an acquisition that raised never happened;
- :meth:`Analysis.refine` post-filters the state on ``true``/``false``
  edges (default: identity).  Typestate uses it for ``is None`` guards.

Library pass: :func:`reaching_definitions` — forward may-analysis mapping
each node to the ``(variable, defining node)`` pairs that may reach it
(GL012's rid-reuse check).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import Generic, TypeVar

from .cfg import CFG, EXC, CFGNode, stmt_exprs

__all__ = [
    "Analysis",
    "DataflowResult",
    "assigned_names",
    "reaching_definitions",
    "solve",
]

S = TypeVar("S")


class Analysis(Generic[S]):
    """One forward dataflow problem: lattice + transfer functions."""

    def initial(self) -> S:
        """The boundary state at ``entry``."""
        raise NotImplementedError

    def bottom(self) -> S:
        """The least state (identity of :meth:`join`)."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        """State after executing ``node`` normally."""
        raise NotImplementedError

    def transfer_exc(self, node: CFGNode, state: S) -> S:
        """State carried by ``exc`` edges out of ``node``."""
        return self.transfer(node, state)

    def refine(self, kind: str, node: CFGNode, state: S) -> S:
        """Post-filter for ``true``/``false`` edges out of a branch head."""
        return state


class DataflowResult(Generic[S]):
    """Fixpoint states.

    ``before[nid]`` is the join over the edges arriving at the node (its
    in-state); ``after(nid)`` applies the node's transfer to it.
    """

    def __init__(self, cfg: CFG, analysis: Analysis[S], before: dict[int, S]) -> None:
        self.cfg = cfg
        self.analysis = analysis
        self.before = before

    def after(self, nid: int) -> S:
        """``transfer`` applied to ``before[nid]``."""
        return self.analysis.transfer(self.cfg.node(nid), self.before[nid])


def solve(cfg: CFG, analysis: Analysis[S]) -> DataflowResult[S]:
    """Run ``analysis`` over ``cfg`` to a fixpoint (worklist iteration)."""
    before: dict[int, S] = {n.nid: analysis.bottom() for n in cfg.nodes}
    before[cfg.entry] = analysis.initial()

    def edge_state(src: int, kind: str) -> S:
        node = cfg.node(src)
        state = before[src]
        if node.stmt is None:
            return state  # markers are identity
        if kind == EXC:
            return analysis.transfer_exc(node, state)
        return analysis.refine(kind, node, analysis.transfer(node, state))

    work = [n.nid for n in cfg.nodes]
    while work:
        nid = work.pop()
        if nid == cfg.entry:
            continue
        state = analysis.bottom()
        for edge in cfg.preds(nid):
            state = analysis.join(state, edge_state(edge.src, edge.kind))
        if state == before[nid]:
            continue
        before[nid] = state
        work.extend(edge.dst for edge in cfg.succs(nid))
    return DataflowResult(cfg, analysis, before)


# ----------------------------------------------------------------------
# Name extraction
# ----------------------------------------------------------------------
def _target_names(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def assigned_names(stmt: ast.stmt) -> set[str]:
    """Every local name this CFG node (re)binds."""
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name | ast.Tuple | ast.List | ast.Starred):
                names.update(_target_names(target))
    elif isinstance(stmt, ast.AnnAssign | ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    elif isinstance(stmt, ast.For | ast.AsyncFor):
        names.update(_target_names(stmt.target))
    elif isinstance(stmt, ast.With | ast.AsyncWith):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.update(_target_names(item.optional_vars))
    elif isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
        names.add(stmt.name)
    elif isinstance(stmt, ast.Import | ast.ImportFrom):
        for alias in stmt.names:
            names.add((alias.asname or alias.name).split(".")[0])
    # Walrus targets bind wherever the expression is evaluated.
    for node in stmt_exprs(stmt):
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


#: One reaching definition: ``(variable, defining node id)``.
ReachingDefs = frozenset[tuple[str, int]]


class _ReachingDefs(Analysis[ReachingDefs]):
    def initial(self) -> ReachingDefs:
        return frozenset()

    def bottom(self) -> ReachingDefs:
        return frozenset()

    def join(self, a: ReachingDefs, b: ReachingDefs) -> ReachingDefs:
        return a | b

    def transfer(self, node: CFGNode, state: ReachingDefs) -> ReachingDefs:
        if node.stmt is None:
            return state
        defined = assigned_names(node.stmt)
        if not defined:
            return state
        kept = frozenset(pair for pair in state if pair[0] not in defined)
        return kept | frozenset((name, node.nid) for name in defined)

    def transfer_exc(self, node: CFGNode, state: ReachingDefs) -> ReachingDefs:
        # On the exception edge the assignment may or may not have
        # happened: keep both possibilities (may-analysis).
        return state | self.transfer(node, state)


def reaching_definitions(cfg: CFG) -> DataflowResult[ReachingDefs]:
    """May-reaching ``(var, def-node)`` pairs before each node."""
    return solve(cfg, _ReachingDefs())
