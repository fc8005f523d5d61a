"""CFG builder + solver tests on adversarial control-flow constructs.

Every test asserts the *complete* edge set against a hand-written
expectation (``cfg.edge_set()`` renders edges as
``(src_label, dst_label, kind)`` with ``StmtType:line`` labels), so a
builder regression cannot hide behind a partial containment check.
"""

import ast
import textwrap

from repro.analysis.flow import build_cfg, reaching_definitions


def _cfg(source, *, can_raise=None, name=None):
    tree = ast.parse(textwrap.dedent(source))
    funcs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
    ]
    func = next(f for f in funcs if name is None or f.name == name)
    if can_raise is None:
        return build_cfg(func)
    return build_cfg(func, can_raise=can_raise)


def _never(stmt):
    return False


class TestLinearAndBranches:
    def test_linear(self):
        cfg = _cfg(
            """\
            def f():
                a = 1
                b = a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Assign:2", "normal"),
            ("Assign:2", "Assign:3", "normal"),
            ("Assign:3", "exit", "normal"),
        }

    def test_if_else(self):
        cfg = _cfg(
            """\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "If:2", "normal"),
            ("If:2", "Assign:3", "true"),
            ("If:2", "Assign:5", "false"),
            ("Assign:3", "Return:6", "normal"),
            ("Assign:5", "Return:6", "normal"),
            ("Return:6", "exit", "normal"),
        }

    def test_if_without_else_falls_through(self):
        cfg = _cfg(
            """\
            def f(x):
                if x:
                    a = 1
                return x
            """
        )
        assert cfg.edge_set() == {
            ("entry", "If:2", "normal"),
            ("If:2", "Assign:3", "true"),
            ("If:2", "Return:4", "false"),
            ("Assign:3", "Return:4", "normal"),
            ("Return:4", "exit", "normal"),
        }


class TestLoops:
    def test_while_else_with_break(self):
        cfg = _cfg(
            """\
            def f(x):
                while x:
                    if x:
                        break
                    x = g(x)
                else:
                    a = 1
                return x
            """,
            can_raise=_never,
        )
        assert cfg.edge_set() == {
            ("entry", "While:2", "normal"),
            ("While:2", "If:3", "true"),
            ("If:3", "Break:4", "true"),
            ("If:3", "Assign:5", "false"),
            ("Assign:5", "While:2", "normal"),
            ("While:2", "Assign:7", "false"),
            ("Assign:7", "Return:8", "normal"),
            ("Break:4", "Return:8", "normal"),
            ("Return:8", "exit", "normal"),
        }

    def test_while_true_has_no_false_edge(self):
        cfg = _cfg(
            """\
            def f(x):
                while True:
                    if x:
                        break
                return x
            """,
            can_raise=_never,
        )
        assert cfg.edge_set() == {
            ("entry", "While:2", "normal"),
            ("While:2", "If:3", "true"),
            ("If:3", "Break:4", "true"),
            ("If:3", "While:2", "false"),
            ("Break:4", "Return:5", "normal"),
            ("Return:5", "exit", "normal"),
        }

    def test_for_else(self):
        cfg = _cfg(
            """\
            def f(xs):
                for x in xs:
                    a = x
                else:
                    b = 1
                return b
            """,
            can_raise=_never,
        )
        assert cfg.edge_set() == {
            ("entry", "For:2", "normal"),
            ("For:2", "Assign:3", "true"),
            ("Assign:3", "For:2", "normal"),
            ("For:2", "Assign:5", "false"),
            ("Assign:5", "Return:6", "normal"),
            ("Return:6", "exit", "normal"),
        }

    def test_continue_routed_through_finally(self):
        cfg = _cfg(
            """\
            def f(xs):
                for x in xs:
                    try:
                        if x:
                            continue
                        a = 1
                    finally:
                        b = 2
                return 1
            """,
            can_raise=_never,
        )
        # No node for the `try` line itself: the loop body enters the
        # protected region directly, and both the continue and the normal
        # body end reach the loop header *through* the finally block.
        assert cfg.edge_set() == {
            ("entry", "For:2", "normal"),
            ("For:2", "If:4", "true"),
            ("If:4", "Continue:5", "true"),
            ("If:4", "Assign:6", "false"),
            ("Continue:5", "Assign:8", "normal"),
            ("Assign:6", "Assign:8", "normal"),
            ("Assign:8", "For:2", "normal"),
            ("For:2", "Return:9", "false"),
            ("Return:9", "exit", "normal"),
        }


class TestExceptions:
    def test_try_except_else_finally(self):
        cfg = _cfg(
            """\
            def f(x):
                try:
                    a = g(x)
                except ValueError:
                    b = h(x)
                finally:
                    c = 1
                return c
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Assign:3", "normal"),
            # handler entry
            ("Assign:3", "Assign:5", "exc"),
            # normal completion and the may-slip-past-ValueError path,
            # both funnelled through the finally
            ("Assign:3", "Assign:7", "normal"),
            ("Assign:3", "Assign:7", "exc"),
            # handler completion (normal) and handler raising (h(x))
            ("Assign:5", "Assign:7", "normal"),
            ("Assign:5", "Assign:7", "exc"),
            # finally re-raises pending exceptions, else falls through
            ("Assign:7", "raise", "exc"),
            ("Assign:7", "Return:8", "normal"),
            ("Return:8", "exit", "normal"),
        }

    def test_bare_raise_reraise(self):
        cfg = _cfg(
            """\
            def f(x):
                try:
                    a = g(x)
                except Exception:
                    raise
                return a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Assign:3", "normal"),
            ("Assign:3", "Raise:5", "exc"),
            ("Raise:5", "raise", "exc"),
            ("Assign:3", "Return:6", "normal"),
            ("Return:6", "exit", "normal"),
        }

    def test_return_routed_through_finally(self):
        cfg = _cfg(
            """\
            def f(x):
                try:
                    return g(x)
                finally:
                    c = 1
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Return:3", "normal"),
            # the call may raise (exc) or produce the return value
            # (normal); either way the finally runs next
            ("Return:3", "Assign:5", "exc"),
            ("Return:3", "Assign:5", "normal"),
            ("Assign:5", "raise", "exc"),
            ("Assign:5", "exit", "normal"),
        }

    def test_with_unwinding(self):
        cfg = _cfg(
            """\
            def f(x):
                with g(x) as h:
                    a = h
                return a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "With:2", "normal"),
            ("With:2", "raise", "exc"),
            ("With:2", "Assign:3", "normal"),
            ("Assign:3", "Return:4", "normal"),
            ("Return:4", "exit", "normal"),
        }

    def test_uncaught_exception_leaves_function(self):
        cfg = _cfg(
            """\
            def f(x):
                a = g(x)
                return a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Assign:2", "normal"),
            ("Assign:2", "raise", "exc"),
            ("Assign:2", "Return:3", "normal"),
            ("Return:3", "exit", "normal"),
        }


class TestMatchAndComprehensions:
    def test_match_with_irrefutable_case(self):
        cfg = _cfg(
            """\
            def f(x):
                match x:
                    case 1:
                        a = 1
                    case _:
                        a = 2
                return a
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Match:2", "normal"),
            ("Match:2", "Assign:4", "true"),
            ("Match:2", "Assign:6", "true"),
            ("Assign:4", "Return:7", "normal"),
            ("Assign:6", "Return:7", "normal"),
            ("Return:7", "exit", "normal"),
        }

    def test_match_without_wildcard_can_fall_through(self):
        cfg = _cfg(
            """\
            def f(x):
                match x:
                    case 1:
                        a = 1
                return x
            """
        )
        assert cfg.edge_set() == {
            ("entry", "Match:2", "normal"),
            ("Match:2", "Assign:4", "true"),
            ("Match:2", "Return:5", "false"),
            ("Assign:4", "Return:5", "normal"),
            ("Return:5", "exit", "normal"),
        }

    def test_nested_comprehension_is_one_node(self):
        cfg = _cfg(
            """\
            def f(xs):
                ys = [i for row in xs for i in row if i]
                return ys
            """,
            can_raise=_never,
        )
        assert cfg.edge_set() == {
            ("entry", "Assign:2", "normal"),
            ("Assign:2", "Return:3", "normal"),
            ("Return:3", "exit", "normal"),
        }


class TestSolverPasses:
    def test_reaching_definitions_join_at_merge(self):
        cfg = _cfg(
            """\
            def f(x):
                a = 1
                if x:
                    a = 2
                return a
            """,
            can_raise=_never,
        )
        return_nid = next(
            n.nid for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.Return)
        )
        defs = reaching_definitions(cfg).before[return_nid]
        lines = sorted(
            cfg.node(nid).stmt.lineno for var, nid in defs if var == "a"
        )
        assert lines == [2, 4]
