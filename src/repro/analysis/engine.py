"""The gridlint rule engine: file walking, rule dispatch, suppression, output.

The engine is deliberately small and dependency-free:

- :class:`Module` is one parsed source file (path, AST, source lines);
- :class:`Project` is the set of modules in one run — rules that need a
  whole-tree view (e.g. registry completeness) work on it;
- :class:`Rule` is the base class rules subclass: per-module checks override
  :meth:`Rule.check`, project-wide checks override :meth:`Rule.finalize`;
- :class:`Finding` is one diagnostic, carrying everything the text and JSON
  renderers need;
- ``# gridlint: disable=GL001 -- reason`` on the offending line suppresses
  a finding; the engine keeps suppressed findings (with their reason) so
  they stay auditable instead of vanishing.

Exit-code contract (enforced by the CLI and relied on by CI):
``0`` — no active findings, ``1`` — at least one active finding,
``2`` — usage error (no such path, unknown rule id).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, ClassVar

__all__ = [
    "AnalysisReport",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "Suppression",
    "iter_python_files",
    "load_module",
    "run_analysis",
]

#: Rule id of the engine's own "file does not parse" diagnostic.
PARSE_ERROR_RULE = "GL000"

#: Directories never descended into by the file walker.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: ``# gridlint: disable=GL001,GL002 -- optional reason`` (the reason
#: separator may be ``--`` or a parenthesised trailer).
_SUPPRESS_RE = re.compile(
    r"#\s*gridlint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*(?:--|—)\s*(?P<reason>.*?))?\s*$"
)

_RULE_ID_RE = re.compile(r"^GL\d{3}$")


@dataclass(frozen=True)
class Suppression:
    """One inline suppression comment: which rules, on which line, and why."""

    line: int
    rules: frozenset[str]
    reason: str | None

    def covers(self, rule_id: str) -> bool:
        """Does this suppression silence ``rule_id``?"""
        return rule_id in self.rules or "ALL" in self.rules


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"
    suppressed: bool = False
    suppress_reason: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }

    def render(self) -> str:
        """``path:line:col: RULE message`` — the text output line."""
        tag = f" [suppressed: {self.suppress_reason or 'no reason given'}]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass
class Module:
    """One parsed source file handed to the per-module rules."""

    path: Path
    relpath: str  # posix-style, relative to the scan root when possible
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: Cross-rule memo (parsed CFGs, dataflow fixpoints, …) keyed by the
    #: computing client — rules sharing an expensive artefact stash it
    #: here so the walk parses and solves once, not once per rule.
    cache: dict[str, Any] = field(default_factory=dict)

    def suppression_for(self, line: int, rule_id: str) -> Suppression | None:
        """The suppression covering ``rule_id`` at ``line``, if any."""
        sup = self.suppressions.get(line)
        if sup is not None and sup.covers(rule_id):
            return sup
        return None


@dataclass
class Project:
    """Every module of one analysis run (the whole-tree view)."""

    modules: list[Module] = field(default_factory=list)


class Rule:
    """Base class for gridlint rules.

    Subclasses set the class attributes and override :meth:`check` (called
    once per module that passes :meth:`applies_to`) and/or :meth:`finalize`
    (called once per run with the whole :class:`Project`).
    """

    rule_id: ClassVar[str] = "GL999"
    title: ClassVar[str] = ""
    severity: ClassVar[str] = "error"
    #: Relative-path fragments exempt from this rule (posix style).
    allowlist: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, module: Module) -> bool:
        """Should :meth:`check` run on this module?  Honours ``allowlist``."""
        return not any(fragment in module.relpath for fragment in self.allowlist)

    def check(self, module: Module) -> Iterable[Finding]:
        """Per-module findings (default: none)."""
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        """Whole-project findings, after every module was loaded (default: none)."""
        return ()

    @property
    def doc_anchor(self) -> str:
        """Link into ``docs/ANALYSIS.md`` for this rule's section."""
        return f"docs/ANALYSIS.md#{self.rule_id.lower()}-{self.title}"

    # ------------------------------------------------------------------
    def finding(
        self, module: Module, node: ast.AST | None, message: str, *, line: int | None = None
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or ``line``)."""
        lineno = line if line is not None else getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            path=module.relpath,
            line=lineno,
            col=col,
            rule=self.rule_id,
            message=message,
            severity=self.severity,
        )


@dataclass
class AnalysisReport:
    """The outcome of one run: active and suppressed findings."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """``0`` when no active finding survived, else ``1``."""
        return 1 if self.findings else 0

    def to_json(self) -> str:
        """Stable JSON document (schema version 1) for tooling."""
        payload = {
            "version": 1,
            "tool": "gridlint",
            "files_scanned": self.files_scanned,
            "rules": self.rules_run,
            "summary": {
                "active": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": self._by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed_findings": [f.to_dict() for f in self.suppressed],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def _by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def render_text(self, *, show_suppressed: bool = False) -> str:
        """Human-readable report, one line per finding plus a summary."""
        lines = [f.render() for f in sorted(self.findings)]
        if show_suppressed:
            lines.extend(f.render() for f in sorted(self.suppressed))
        n_active, n_sup = len(self.findings), len(self.suppressed)
        lines.append(
            f"gridlint: {self.files_scanned} file(s), "
            f"{n_active} finding(s), {n_sup} suppressed"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# File walking and parsing
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files or directories).

    Hidden directories, ``__pycache__`` and friends are skipped; the order
    is deterministic (sorted walk) so reports are reproducible.
    """
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            # Only judge components below the scan root: a repository that
            # happens to live under a hidden directory must still scan.
            rel_parts = candidate.relative_to(path).parts
            if set(rel_parts) & _SKIP_DIRS:
                continue
            if any(part.endswith(".egg-info") or part.startswith(".") for part in rel_parts):
                continue
            yield candidate


def _parse_suppressions(source: str) -> dict[int, Suppression]:
    suppressions: dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper() for token in match.group("rules").split(",") if token.strip()
        )
        reason = match.group("reason") or None
        suppressions[lineno] = Suppression(line=lineno, rules=rules, reason=reason)
    return suppressions


#: Compound statements: a suppression on their (possibly multi-line)
#: *header* covers the header span only — never the whole body.
_COMPOUND_STMTS = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Match,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


def _stmt_spans(tree: ast.Module) -> Iterator[tuple[int, int]]:
    """Physical-line spans over which one suppression comment applies.

    Simple statements span their full extent (a call broken over five
    lines is one statement); compound statements span only their header —
    from the ``if``/``def``/``for`` line to the line before their first
    body statement — so a trailing comment on a multi-line condition
    works without silencing the entire block.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        if isinstance(node, _COMPOUND_STMTS):
            first_body: int | None = None
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    first_body = child.lineno
                    break
                if isinstance(child, ast.ExceptHandler | ast.match_case):
                    first_body = child.lineno
                    break
            end = (first_body - 1) if first_body is not None else start
        else:
            end = node.end_lineno or start
        if end > start:
            yield start, end


def _expand_suppressions(
    tree: ast.Module, suppressions: dict[int, Suppression]
) -> dict[int, Suppression]:
    """Make a suppression anywhere in a statement span cover every line.

    Rules report findings at the node that fired — for a multi-line call
    that may be any physical line of the statement, while the disable
    comment necessarily sits on just one of them.  Each line of the span
    without its own comment inherits the span's (first) suppression.
    """
    if not suppressions:
        return suppressions
    expanded = dict(suppressions)
    for start, end in _stmt_spans(tree):
        span_sup = next(
            (
                suppressions[line]
                for line in range(start, end + 1)
                if line in suppressions
            ),
            None,
        )
        if span_sup is None:
            continue
        for line in range(start, end + 1):
            expanded.setdefault(line, span_sup)
    return expanded


def _relpath(path: Path, roots: Sequence[Path]) -> str:
    resolved = path.resolve()
    for root in roots:
        try:
            rel = resolved.relative_to(root.resolve())
        except ValueError:
            continue
        prefix = root.name if root.is_dir() else ""
        return (Path(prefix) / rel).as_posix() if prefix else rel.as_posix()
    return path.as_posix()


def load_module(path: Path, roots: Sequence[Path] = ()) -> Module | Finding:
    """Parse one file into a :class:`Module`, or a GL000 parse-error finding."""
    relpath = _relpath(path, roots) if roots else path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return Finding(
            path=relpath,
            line=int(line),
            col=0,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc}",
            severity="error",
        )
    suppressions = _expand_suppressions(tree, _parse_suppressions(source))
    return Module(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=suppressions,
    )


# ----------------------------------------------------------------------
# The run loop
# ----------------------------------------------------------------------
def run_analysis(
    paths: Sequence[str | Path],
    rules: Sequence[Rule],
    *,
    jobs: int | None = None,
) -> AnalysisReport:
    """Scan ``paths`` with ``rules`` and collect a report.

    Findings on lines carrying a matching ``# gridlint: disable=`` comment
    are moved to the report's ``suppressed`` list rather than dropped.

    ``jobs`` parallelises the read-and-parse stage over a thread pool
    (``None``/``1`` stays serial).  ``executor.map`` preserves the sorted
    walk order, so reports are byte-identical at any parallelism — each
    module is parsed once and its AST shared by every rule via
    :attr:`Module.cache`.
    """
    roots = [Path(p) for p in paths]
    report = AnalysisReport(rules_run=[rule.rule_id for rule in rules])
    project = Project()
    files = list(iter_python_files(paths))
    if jobs is not None and jobs > 1 and len(files) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            loaded_modules = list(
                pool.map(lambda path: load_module(path, roots), files)
            )
    else:
        loaded_modules = [load_module(path, roots) for path in files]
    for loaded in loaded_modules:
        if isinstance(loaded, Finding):
            report.findings.append(loaded)
            report.files_scanned += 1
            continue
        project.modules.append(loaded)
        report.files_scanned += 1

    modules_by_relpath = {m.relpath: m for m in project.modules}

    def route(finding: Finding) -> None:
        module = modules_by_relpath.get(finding.path)
        sup = module.suppression_for(finding.line, finding.rule) if module else None
        if sup is not None:
            report.suppressed.append(
                Finding(
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    rule=finding.rule,
                    message=finding.message,
                    severity=finding.severity,
                    suppressed=True,
                    suppress_reason=sup.reason,
                )
            )
        else:
            report.findings.append(finding)

    for rule in rules:
        for module in project.modules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                route(finding)
        for finding in rule.finalize(project):
            route(finding)

    report.findings.sort()
    report.suppressed.sort()
    return report


def validate_rule_ids(requested: Iterable[str], known: Iterable[str]) -> list[str]:
    """Normalise and validate a user-supplied rule id list (raises ValueError)."""
    known_set = set(known)
    selected: list[str] = []
    for token in requested:
        rule_id = token.strip().upper()
        if not rule_id:
            continue
        if not _RULE_ID_RE.match(rule_id) or rule_id not in known_set:
            raise ValueError(f"unknown rule id {rule_id!r}; known: {', '.join(sorted(known_set))}")
        selected.append(rule_id)
    return selected
