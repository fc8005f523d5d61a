"""``grid-obs`` — inspect and convert run-telemetry artifacts.

Examples::

    grid-obs summary results/run.json
    grid-obs summary results/run.json --json
    grid-obs convert results/run.json --to chrome -o trace.json
    grid-obs convert results/run.json --to jsonl -o spans.jsonl
    grid-obs convert results/run.json --to prometheus
    grid-obs validate results/run.json
    grid-obs validate trace.json --kind chrome
    grid-obs explain 7 results/run.json --journal results/run.journal.jsonl
    grid-obs slo results/run.json --rules slo_rules.json

Exit codes follow the gridlint convention: ``0`` success, ``1`` the
document failed validation (or, for ``explain``, the rid is unknown; for
``slo``, an objective was breached), ``2`` usage error (missing file,
bad format, a ``--journal`` beside an artifact of several captures).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from ..core.errors import ReproError
from .artifact import RunTelemetry
from .causal import explain_request
from .metrics import MetricsRegistry
from .schema import SchemaError, validate_artifact, validate_chrome_trace
from .slo import SloRuleError, default_slo_rules, evaluate_artifact, load_rules
from .summary import summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="grid-obs",
        description="Summarise, convert and validate repro run-telemetry artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="summarise a run-telemetry artifact")
    summary.add_argument("artifact", help="path to a run-telemetry JSON artifact")
    summary.add_argument("--json", action="store_true", help="emit the summary as JSON")

    convert = sub.add_parser("convert", help="convert an artifact between export formats")
    convert.add_argument("artifact", help="path to a run-telemetry JSON artifact")
    convert.add_argument(
        "--to",
        dest="target",
        choices=("chrome", "jsonl", "prometheus"),
        required=True,
        help="chrome trace-event JSON, span JSONL, or Prometheus text exposition",
    )
    convert.add_argument("-o", "--output", default=None, help="write here instead of stdout")

    validate = sub.add_parser("validate", help="check a document against its JSON schema")
    validate.add_argument("document", help="path to the JSON document")
    validate.add_argument(
        "--kind",
        choices=("artifact", "chrome", "auto"),
        default="auto",
        help="schema to apply (auto sniffs the document)",
    )

    explain = sub.add_parser(
        "explain", help="reconstruct one request's causal timeline"
    )
    explain.add_argument("rid", type=int, help="the request id to explain")
    explain.add_argument("artifact", help="path to a run-telemetry JSON artifact")
    explain.add_argument(
        "--journal",
        default=None,
        help="gateway journal (JSONL) to interleave into the timeline "
        "(one-capture artifacts only)",
    )

    slo = sub.add_parser(
        "slo", help="evaluate an artifact against service-level objectives"
    )
    slo.add_argument("artifact", help="path to a run-telemetry JSON artifact")
    slo.add_argument(
        "--rules",
        default=None,
        help="JSON rules file (defaults to the built-in gateway objectives)",
    )
    slo.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    return parser


def _load_json(path: str) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(output).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
        print(f"wrote {output}")


def _cmd_summary(args: argparse.Namespace) -> int:
    artifact = RunTelemetry.load(args.artifact)
    report = summarize(artifact)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    artifact = RunTelemetry.load(args.artifact)
    if args.target == "chrome":
        document = artifact.chrome_trace()
        validate_chrome_trace(document)
        _emit(json.dumps(document, indent=2, sort_keys=True), args.output)
    elif args.target == "jsonl":
        lines = []
        for entry in artifact.captures():
            for span in entry.get("spans", []):
                lines.append(json.dumps(span, sort_keys=True, separators=(",", ":")))
        _emit("\n".join(lines), args.output)
    else:  # prometheus
        chunks = []
        for label in artifact.labels():
            registry: MetricsRegistry = artifact.registry(label)
            text = registry.to_prometheus_text()
            if text:
                chunks.append(f"# capture: {label}\n{text}")
        _emit("\n".join(chunks), args.output)
    return 0


def _sniff_kind(document: Any) -> str:
    if isinstance(document, dict) and document.get("format") == "repro-run-telemetry":
        return "artifact"
    if isinstance(document, dict) and "traceEvents" in document:
        return "chrome"
    return "artifact"


def _cmd_validate(args: argparse.Namespace) -> int:
    document = _load_json(args.document)
    kind = args.kind if args.kind != "auto" else _sniff_kind(document)
    try:
        if kind == "artifact":
            validate_artifact(document)
        else:
            validate_chrome_trace(document)
    except SchemaError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"OK: valid {kind} document")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    artifact = _load_json(args.artifact)
    validate_artifact(artifact)
    journal = None
    if args.journal is not None:
        from ..gateway.journal import Journal  # local: obs must stay core-only

        journal = Journal.load(args.journal)
    try:
        story = explain_request(artifact, args.rid, journal=journal)
    except ValueError as exc:
        print(f"error: --journal {args.journal}: {exc}", file=sys.stderr)
        return 2
    if story is None:
        print(f"no record of rid {args.rid} in {args.artifact}", file=sys.stderr)
        return 1
    print(story)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    artifact = _load_json(args.artifact)
    validate_artifact(artifact)
    rules = load_rules(args.rules) if args.rules is not None else default_slo_rules()
    verdict = evaluate_artifact(artifact, rules)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        for capture in verdict["captures"]:
            status = "ok" if capture["ok"] else "BREACH"
            print(f"{capture['label'] or '<unlabeled>'}: {status}")
            for breach in capture["breaches"]:
                print(
                    f"  {breach['rule']}: {breach['metric']} {breach['bound']} "
                    f"{breach['threshold']:g} but saw {breach['value']:g} "
                    f"at t={breach['at']:g}"
                )
        print(f"slo: {'ok' if verdict['ok'] else 'BREACH'}")
    return 0 if verdict["ok"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            return _cmd_summary(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "slo":
            return _cmd_slo(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        # Detach stdout so interpreter shutdown does not re-raise on flush.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115 - lives until exit
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SloRuleError as exc:  # names the rules file, not the artifact
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ReproError) as exc:
        print(f"error: not a readable telemetry document: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
