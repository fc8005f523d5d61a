"""gridlint wall-time gate: the flow-sensitive rules must stay cheap.

The CFG rules (GL011, GL012) build per-function control-flow graphs and
run two dataflow fixpoints (typestate, reaching definitions) on top of
the single-pass AST rules.  This bench runs the full ``src`` tree twice —
once with the single-pass catalogue (every rule but the CFG rules) and
once with every rule — and gates the ratio: flow analysis may at most
*double* the lint time (``MAX_SLOWDOWN``).  The typestate pre-filter
(acquire-verb mentions) is what keeps the ratio honest: most modules
never build a CFG.

Also checks the ``--jobs`` parse parallelism stays report-identical, and
writes ``benchmarks/results/BENCH_lint.json`` (a CI artifact) with the
timings, file count and per-catalogue finding counts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import all_rules, run_analysis

#: Full catalogue may cost at most this multiple of the single-pass one.
MAX_SLOWDOWN = 2.0

#: Ratios are noisy when both runs are fast; the gate also passes while
#: the absolute flow overhead stays under this many seconds.
ABSOLUTE_SLACK_S = 1.0

REPEATS = 3

SRC = Path(__file__).parent.parent / "src"

#: The rules that build a CFG and solve a fixpoint over it.
CFG_RULE_IDS = frozenset({"GL011", "GL012"})


def _single_pass_rules():
    return [rule for rule in all_rules() if rule.rule_id not in CFG_RULE_IDS]


def _time_run(rules):
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = run_analysis([SRC], rules)
        best = min(best, time.perf_counter() - start)
    return best, report


def test_flow_rules_stay_under_slowdown_gate(results_dir):
    single_time, single_report = _time_run(_single_pass_rules())
    full_time, full_report = _time_run(all_rules())

    # Same tree, strictly larger catalogue: scan coverage must agree.
    assert full_report.files_scanned == single_report.files_scanned
    assert full_report.findings == [], "src tree must lint clean"

    slowdown = full_time / single_time if single_time > 0 else float("inf")
    overhead = full_time - single_time
    assert slowdown < MAX_SLOWDOWN or overhead < ABSOLUTE_SLACK_S, (
        f"flow rules slowed gridlint {slowdown:.2f}x "
        f"(single-pass {single_time:.3f}s → full {full_time:.3f}s); "
        f"gate is {MAX_SLOWDOWN}x"
    )

    parallel_report = run_analysis([SRC], all_rules(), jobs=4)
    assert parallel_report.to_json() == full_report.to_json()

    payload = {
        "files_scanned": full_report.files_scanned,
        "single_pass_rules": len(_single_pass_rules()),
        "full_rules": len(all_rules()),
        "single_pass_time_s": round(single_time, 4),
        "full_time_s": round(full_time, 4),
        "slowdown": round(slowdown, 3),
        "gate": MAX_SLOWDOWN,
        "suppressed_findings": len(full_report.suppressed),
    }
    (results_dir / "BENCH_lint.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
