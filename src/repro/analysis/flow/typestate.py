"""Resource typestate over the CFG: acquire → (release | transfer) on every path.

Parameterised by a :class:`ResourceSpec` — the (acquire, release,
transfer) verb sets of one protocol.  For the gateway's two-phase
protocol that is ``acquire={prepare}``, ``release={commit, abort_hold}``:
a ``prepare()`` result that can reach function exit (normal *or*
exceptional) without a resolution attempt is a leaked hold.

Granularity is the CFG node (one statement): a statement that contains an
acquire-verb call and binds a single name acquires that name; a statement
that contains a release-verb call releases every held variable whose name
it mentions.  This deliberately sees through wrappers — ``hold =
self._with_retry(lambda: c.prepare(...))`` acquires ``hold``, and
``self._with_retry(lambda h=hold: c.commit(h.hold_id))`` releases it —
because the verbs and the variable appear in the same statement.

Ownership transfers (the checker goes quiet, it does not bless): the held
variable is returned or yielded, stored into an attribute, subscript or
container, aliased by another assignment, or passed to any call that is
not itself a release.  Leak reports therefore only name variables that
*no* statement on the path did anything resolution-shaped with.

Exception semantics (``transfer_exc``): an edge taken because the
statement raised carries the pre-state with releases applied but
acquisitions **not** applied — a ``prepare`` that raised never granted a
hold, and a ``commit`` that raised still counts as a resolution attempt
(failed resolutions are the hold-TTL sweep's job; this checker hunts
paths with *no* attempt).  Branch refinement understands ``if x is
None`` / ``if not x`` guards: on the branch where the acquire result is
None, nothing is held.

Events produced (consumed by rules GL011/GL012):

- ``leak`` — a held variable reaches ``exit``/``raise``;
- ``discard`` — an acquire-verb result is not bound to a name;
- ``double`` — a second release of an already-released variable with no
  idempotency keyword;
- ``order`` — a release verb runs on a receiver no path has seen an
  acquire verb on, in a function that does acquire on that receiver.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from ..rules._common import dotted_name, terminal_name
from .cfg import CFG, CFGNode, stmt_exprs
from .solver import Analysis, assigned_names, solve

__all__ = [
    "ResourceSpec",
    "TypestateEvent",
    "check_function",
    "spec_can_raise",
]


@dataclass(frozen=True)
class ResourceSpec:
    """The verb sets of one acquire/release protocol."""

    acquire: frozenset[str]
    release: frozenset[str]
    #: Extra verbs that take ownership without resolving (beyond the
    #: structural transfers the checker always recognises).
    transfer: frozenset[str] = frozenset()
    #: A release call carrying this keyword is idempotent — replays are
    #: answered from a recorded result, so double resolution is safe.
    idempotent_kwarg: str | None = "key"

    def verbs(self) -> frozenset[str]:
        """Every verb the spec knows (used for the narrow raise filter)."""
        return self.acquire | self.release | self.transfer


def spec_can_raise(spec: ResourceSpec) -> Callable[[ast.stmt], bool]:
    """Raise filter for :func:`~repro.analysis.flow.cfg.build_cfg`.

    Only ``raise``/``assert`` and statements calling a protocol verb get
    exception edges: the protocol calls are the ones documented to raise
    (``BrokerUnavailable``, ``ChannelTimeout``), and admitting exception
    edges from every call would manufacture phantom leak paths through
    unrelated bookkeeping statements.
    """
    verbs = spec.verbs()

    def can_raise(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Raise | ast.Assert):
            return True
        return any(
            isinstance(node, ast.Call)
            and terminal_name(node.func) in verbs
            for node in stmt_exprs(stmt)
        )

    return can_raise


@dataclass(frozen=True)
class TypestateEvent:
    """One protocol violation candidate."""

    kind: str  # "leak" | "discard" | "double" | "order"
    line: int  # where to report
    var: str | None = None
    acquire_line: int | None = None
    exit_kind: str | None = None  # "return" | "exception" for leaks
    receiver: str | None = None  # for order events


# State facts: ("held", var, acquire_line) / ("released", var)
#              / ("maybe", var) — release raised: resolution attempted,
#                outcome unknown, so neither a leak nor double-able
#              / ("held_ever", var) / ("prep", receiver)
_Fact = tuple[str, ...]
_State = frozenset[_Fact]


def _calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    for node in stmt_exprs(stmt):
        if isinstance(node, ast.Call):
            yield node


def _mentioned_names(stmt: ast.stmt) -> set[str]:
    return {
        node.id
        for node in stmt_exprs(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _receiver_of(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value) or terminal_name(call.func.value)
    return None


def _single_name_target(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


@dataclass
class _StmtFacts:
    """What one statement means to the protocol (computed once, cached)."""

    acquires: str | None = None  # variable bound to an acquire result
    acquire_line: int = 0
    discards: bool = False  # acquire result not bound to a name
    release_call: bool = False
    release_keyed: bool = False  # release carries the idempotency kwarg
    release_receivers: tuple[str, ...] = ()
    prep_receivers: tuple[str, ...] = ()
    mentioned: frozenset[str] = frozenset()
    rebinds: frozenset[str] = frozenset()  # names (re)bound by this stmt
    transfers_mentions: bool = False  # stmt hands mentioned vars away
    returns_value: bool = False


def _classify(stmt: ast.stmt, spec: ResourceSpec) -> _StmtFacts:
    facts = _StmtFacts(mentioned=frozenset(_mentioned_names(stmt)))
    target = _single_name_target(stmt)
    has_non_release_call = False
    for call in _calls(stmt):
        verb = terminal_name(call.func)
        if verb in spec.acquire:
            recv = _receiver_of(call)
            if recv is not None:
                facts.prep_receivers += (recv,)
            if target is not None:
                facts.acquires = target
                facts.acquire_line = stmt.lineno
            elif isinstance(stmt, ast.Expr):
                # Only a bare expression statement truly drops the result;
                # `return broker.prepare(...)` or passing it along hands
                # ownership to the caller.
                facts.discards = True
        elif verb in spec.release:
            facts.release_call = True
            recv = _receiver_of(call)
            if recv is not None:
                facts.release_receivers += (recv,)
            if spec.idempotent_kwarg is not None and any(
                kw.arg == spec.idempotent_kwarg for kw in call.keywords
            ):
                facts.release_keyed = True
        else:
            has_non_release_call = True
            if verb in spec.transfer:
                facts.transfers_mentions = True
    if isinstance(stmt, ast.Return | ast.Expr) and isinstance(
        getattr(stmt, "value", None), ast.Yield | ast.YieldFrom
    ):
        facts.returns_value = True
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        facts.returns_value = True
    # Structural transfers: the variable flows somewhere the checker
    # cannot follow — any other call, a store, an aliasing assignment.
    if has_non_release_call:
        facts.transfers_mentions = True
    if isinstance(stmt, ast.Assign | ast.AnnAssign | ast.AugAssign):
        facts.transfers_mentions = True  # aliasing / store gives up tracking
    facts.rebinds = frozenset(assigned_names(stmt))
    return facts


def _none_guard(test: ast.expr) -> tuple[str, str] | None:
    """``(var, branch-where-var-is-none)`` for recognisable None tests."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, (op,), (right,) = test.left, test.ops, test.comparators
        if isinstance(right, ast.Constant) and right.value is None and isinstance(
            left, ast.Name
        ):
            if isinstance(op, ast.Is):
                return (left.id, "true")
            if isinstance(op, ast.IsNot):
                return (left.id, "false")
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) and isinstance(
        test.operand, ast.Name
    ):
        return (test.operand.id, "true")
    if isinstance(test, ast.Name):
        return (test.id, "false")
    return None


@dataclass
class _TypestateAnalysis(Analysis[_State]):
    spec: ResourceSpec
    facts: dict[int, _StmtFacts]
    events: list[TypestateEvent] = field(default_factory=list)
    _seen: set[tuple[object, ...]] = field(default_factory=set)

    def initial(self) -> _State:
        return frozenset()

    def bottom(self) -> _State:
        return frozenset()

    def join(self, a: _State, b: _State) -> _State:
        return a | b

    def _emit(self, event: TypestateEvent) -> None:
        key = (event.kind, event.line, event.var, event.receiver, event.exit_kind)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(event)

    # ------------------------------------------------------------------
    def _apply(
        self, node: CFGNode, state: _State, *, on_exc: bool, emit: bool = False
    ) -> _State:
        """Transfer function.

        Pure while the worklist runs; the diagnostic checks only fire in
        the post-fixpoint replay (``emit=True``) so that no event is
        ever derived from a transient pre-convergence state.
        """
        stmt = node.stmt
        if stmt is None:
            return state
        facts = self.facts[node.nid]
        out = set(state)
        # 1. Releases: resolve every held variable the statement mentions.
        if facts.release_call:
            held_in = {f[1] for f in state if f[0] == "held"}
            released_in = {f[1] for f in state if f[0] == "released"}
            for fact in list(out):
                if fact[0] in ("held", "maybe") and fact[1] in facts.mentioned:
                    out.discard(fact)
                    # A release that *raised* attempted resolution with an
                    # unknown outcome: a compensating abort afterwards is
                    # correct, not a double — record "maybe", not
                    # "released".
                    out.add(("maybe" if on_exc else "released", fact[1]))
            if emit and not facts.release_keyed:
                maybe_in = {f[1] for f in state if f[0] == "maybe"}
                for var in facts.mentioned:
                    # Second resolution: the variable was acquired in this
                    # function, some path already resolved it, and *no*
                    # path still holds it or is mid-compensation (a
                    # may-join of held|released is only a double on the
                    # released path — stay quiet).
                    if (
                        var in released_in
                        and var not in held_in
                        and var not in maybe_in
                        and ("held_ever", var) in state
                    ):
                        self._emit(
                            TypestateEvent(kind="double", line=stmt.lineno, var=var)
                        )
            if emit:
                for recv in facts.release_receivers:
                    if ("prep", recv) not in state:
                        self._emit(
                            TypestateEvent(
                                kind="order", line=stmt.lineno, receiver=recv
                            )
                        )
        # 2. Transfers: mentioned held vars handed away (quietly).
        elif facts.transfers_mentions or facts.returns_value:
            for fact in list(out):
                if fact[0] == "held" and fact[1] in facts.mentioned:
                    out.discard(fact)
        # 3. Rebinds kill tracking for the old value.
        for fact in list(out):
            if (
                fact[0] in ("held", "maybe", "released", "held_ever")
                and fact[1] in facts.rebinds
            ):
                out.discard(fact)
        # 4. Acquisition (skipped on the exception edge: it never happened).
        for recv in facts.prep_receivers:
            out.add(("prep", recv))
        if not on_exc and facts.acquires is not None:
            out.add(("held", facts.acquires, facts.acquire_line))
            out.add(("held_ever", facts.acquires))
        return frozenset(out)

    def transfer(self, node: CFGNode, state: _State) -> _State:
        return self._apply(node, state, on_exc=False)

    def transfer_exc(self, node: CFGNode, state: _State) -> _State:
        return self._apply(node, state, on_exc=True)

    def refine(self, kind: str, node: CFGNode, state: _State) -> _State:
        stmt = node.stmt
        if kind not in ("true", "false") or not isinstance(stmt, ast.If | ast.While):
            return state
        guard = _none_guard(stmt.test)
        if guard is None:
            return state
        var, none_branch = guard
        if kind != none_branch:
            return state
        # On this branch the acquire result is None: nothing was granted.
        return frozenset(
            f for f in state if not (f[0] in ("held", "held_ever") and f[1] == var)
        )


def check_function(
    func_cfg: CFG, spec: ResourceSpec
) -> list[TypestateEvent]:
    """Run the typestate checker over one function's CFG."""
    facts = {
        node.nid: _classify(node.stmt, spec)
        for node in func_cfg.stmt_nodes()
        if node.stmt is not None
    }
    # The order check only makes sense in functions that acquire at all
    # on some receiver; a pure helper that commits a hold it was handed
    # is fine.
    acquires_receivers = {
        recv for f in facts.values() for recv in f.prep_receivers
    }
    analysis = _TypestateAnalysis(spec=spec, facts=facts)
    result = solve(func_cfg, analysis)
    # Replay the diagnostic checks on the *converged* in-states — events
    # must never be derived from transient worklist iterations.
    for node in func_cfg.stmt_nodes():
        if node.stmt is not None:
            analysis._apply(
                node, result.before[node.nid], on_exc=False, emit=True
            )
    # Leak detection: held facts arriving at the exit markers.
    for exit_nid, exit_kind in (
        (func_cfg.exit, "return"),
        (func_cfg.raise_exit, "exception"),
    ):
        for fact in result.before[exit_nid]:
            if fact[0] == "held":
                analysis._emit(
                    TypestateEvent(
                        kind="leak",
                        line=int(fact[2]),
                        var=str(fact[1]),
                        acquire_line=int(fact[2]),
                        exit_kind=exit_kind,
                    )
                )
    # Discards are path-independent; emit them lexically.
    for node in func_cfg.stmt_nodes():
        if facts[node.nid].discards and node.stmt is not None:
            analysis._emit(
                TypestateEvent(kind="discard", line=node.stmt.lineno)
            )
    events = [
        e
        for e in analysis.events
        if not (e.kind == "order" and e.receiver not in acquires_receivers)
    ]
    return events
