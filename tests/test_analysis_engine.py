"""The gridlint engine: walking, suppression, output formats, exit codes."""

import json
import textwrap

import pytest

from repro.analysis import all_rules, run_analysis
from repro.analysis.cli import main
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    Finding,
    iter_python_files,
    validate_rule_ids,
)

CLEAN = """\
def shift(t0, dt):
    return t0 + dt
"""

#: Every rule id, in catalogue order (GL008 and GL010 went into GL004,
#: GL013 is covered by GL001 / GL002, GL014 was retired).
CATALOGUE = [
    "GL001", "GL002", "GL003", "GL004", "GL005", "GL006", "GL007",
    "GL009", "GL011", "GL012", "GL015",
]

#: One GL003 violation, unsuppressed.
VIOLATING = """\
def same(t_end, deadline):
    return t_end == deadline
"""

#: The same violation, suppressed with a reason.
SUPPRESSED = """\
def same(t_end, deadline):
    return t_end == deadline  # gridlint: disable=GL003 -- exact identity intended
"""


def _write(path, source):
    path.write_text(textwrap.dedent(source))
    return path


class TestWalker:
    def test_skips_pycache_and_hidden(self, tmp_path):
        _write(tmp_path / "keep.py", CLEAN)
        (tmp_path / "__pycache__").mkdir()
        _write(tmp_path / "__pycache__" / "skip.py", CLEAN)
        (tmp_path / ".hidden").mkdir()
        _write(tmp_path / ".hidden" / "skip.py", CLEAN)
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["keep.py"]

    def test_accepts_single_file(self, tmp_path):
        target = _write(tmp_path / "one.py", CLEAN)
        assert list(iter_python_files([target])) == [target]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([tmp_path / "nope"]))


class TestSuppression:
    def test_finding_moves_to_suppressed(self, tmp_path):
        _write(tmp_path / "mod.py", SUPPRESSED)
        report = run_analysis([tmp_path], all_rules())
        assert report.findings == []
        assert len(report.suppressed) == 1
        sup = report.suppressed[0]
        assert sup.rule == "GL003"
        assert sup.suppressed is True
        assert sup.suppress_reason == "exact identity intended"

    def test_unsuppressed_stays_active(self, tmp_path):
        _write(tmp_path / "mod.py", VIOLATING)
        report = run_analysis([tmp_path], all_rules())
        assert [f.rule for f in report.findings] == ["GL003"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        _write(
            tmp_path / "mod.py",
            "def same(t_end, deadline):\n"
            "    return t_end == deadline  # gridlint: disable=GL001 -- wrong id\n",
        )
        report = run_analysis([tmp_path], all_rules())
        assert [f.rule for f in report.findings] == ["GL003"]

    def test_multi_rule_and_reasonless_suppression(self, tmp_path):
        _write(
            tmp_path / "mod.py",
            "def same(t_end, deadline):\n"
            "    return t_end == deadline  # gridlint: disable=GL001,GL003\n",
        )
        report = run_analysis([tmp_path], all_rules())
        assert report.findings == []
        assert report.suppressed[0].suppress_reason is None


class TestParseErrors:
    def test_unparsable_file_is_a_gl000_finding(self, tmp_path):
        _write(tmp_path / "broken.py", "def oops(:\n")
        report = run_analysis([tmp_path], all_rules())
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert report.exit_code == 1


class TestJsonOutput:
    def test_schema(self, tmp_path):
        _write(tmp_path / "bad.py", VIOLATING)
        _write(tmp_path / "ok.py", SUPPRESSED)
        report = run_analysis([tmp_path], all_rules())
        doc = json.loads(report.to_json())
        assert doc["version"] == 1
        assert doc["tool"] == "gridlint"
        assert doc["files_scanned"] == 2
        assert doc["summary"]["active"] == 1
        assert doc["summary"]["suppressed"] == 1
        assert doc["summary"]["by_rule"] == {"GL003": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {
            "path", "line", "col", "rule", "message", "severity",
            "suppressed", "suppress_reason",
        }
        assert finding["rule"] == "GL003"
        assert finding["line"] == 2
        assert finding["suppressed"] is False

    def test_findings_sorted_and_stable(self, tmp_path):
        _write(tmp_path / "b.py", VIOLATING)
        _write(tmp_path / "a.py", VIOLATING)
        report = run_analysis([tmp_path], all_rules())
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", CLEAN)
        assert main([str(tmp_path)]) == 0

    def test_violations_exit_one(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", VIOLATING)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "GL003" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", CLEAN)
        assert main(["--rules", "GL999", str(tmp_path)]) == 2

    def test_rule_selection_narrows_run(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", VIOLATING)
        # GL003 disabled: the float-eq violation is invisible.
        assert main(["--rules", "GL001", str(tmp_path)]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == CATALOGUE

    def test_json_flag_emits_json(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", VIOLATING)
        assert main(["--format", "json", str(tmp_path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["active"] == 1


class TestValidateRuleIds:
    def test_normalises_case_and_whitespace(self):
        assert validate_rule_ids([" gl001 ", "GL003"], {"GL001", "GL003"}) == [
            "GL001",
            "GL003",
        ]

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_rule_ids(["GL042"], {"GL001"})


class TestFindingRendering:
    def test_render_carries_suppression_reason(self):
        finding = Finding(
            path="x.py", line=3, col=1, rule="GL001", message="m",
            suppressed=True, suppress_reason="because",
        )
        assert "[suppressed: because]" in finding.render()

    def test_plain_render(self):
        finding = Finding(path="x.py", line=3, col=1, rule="GL001", message="msg")
        assert finding.render() == "x.py:3:1: GL001 msg"


class TestRepoIsClean:
    def test_src_tree_has_no_active_findings(self):
        """The acceptance gate: the shipped tree lints clean."""
        from pathlib import Path

        src = Path(__file__).parent.parent / "src"
        report = run_analysis([src], all_rules())
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        # The known, documented suppressions (timeline breakpoint identity).
        assert all(f.suppress_reason for f in report.suppressed)


class TestMultiLineSuppression:
    """Regression: a disable comment anywhere in a multi-line statement
    must cover the statement's reported line, not just its own line."""

    def test_comment_on_last_line_of_multiline_call(self, tmp_path):
        _write(
            tmp_path / "mod.py",
            """\
            import time

            def f():
                return time.time(
                )  # gridlint: disable=GL001 -- wall time wanted
            """,
        )
        report = run_analysis([tmp_path], all_rules())
        assert [f for f in report.findings if f.rule == "GL001"] == []
        assert len([f for f in report.suppressed if f.rule == "GL001"]) == 1

    def test_comment_on_first_line_covers_inner_lines(self, tmp_path):
        _write(
            tmp_path / "mod.py",
            """\
            import time

            def f():
                stamps = (  # gridlint: disable=GL001 -- wall time wanted
                    time.time(),
                    time.time(),
                )
                return stamps
            """,
        )
        report = run_analysis([tmp_path], all_rules())
        assert [f for f in report.findings if f.rule == "GL001"] == []
        assert len([f for f in report.suppressed if f.rule == "GL001"]) == 2

    def test_compound_header_span_does_not_silence_body(self, tmp_path):
        _write(
            tmp_path / "mod.py",
            """\
            import time

            def f(xs):
                for x in sorted(
                    xs
                ):  # gridlint: disable=GL001 -- covers the header only
                    t = time.time()
                return t
            """,
        )
        report = run_analysis([tmp_path], all_rules())
        # The body violation on line 7 is outside the for-header span.
        assert len([f for f in report.findings if f.rule == "GL001"]) == 1


class TestParallelWalk:
    def test_parallel_report_matches_serial(self, tmp_path):
        for idx in range(12):
            source = VIOLATING if idx % 3 == 0 else CLEAN
            _write(tmp_path / f"mod_{idx:02d}.py", source)
        serial = run_analysis([tmp_path], all_rules())
        parallel = run_analysis([tmp_path], all_rules(), jobs=4)
        assert serial.findings == parallel.findings
        assert serial.suppressed == parallel.suppressed
        assert serial.files_scanned == parallel.files_scanned
        assert serial.to_json() == parallel.to_json()

    def test_jobs_flag_via_cli(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", CLEAN)
        assert main(["--jobs", "4", str(tmp_path)]) == 0


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", VIOLATING)
        assert main(["--format", "sarif", str(tmp_path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "gridlint"
        assert [r["id"] for r in driver["rules"]] == CATALOGUE
        assert all(r["helpUri"].startswith("docs/ANALYSIS.md#") for r in driver["rules"])
        results = run["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "GL003"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_sarif_marks_suppressions(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", SUPPRESSED)
        assert main(["--format", "sarif", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        suppression = results[0]["suppressions"][0]
        assert suppression["kind"] == "inSource"
        assert "identity intended" in suppression["justification"]


class TestBaseline:
    def test_write_then_gate_round_trip(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", VIOLATING)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()
        # Gated against its own snapshot the tree is green…
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()
        # …and the baselined finding stays auditable, not vanished.
        assert main(
            ["--baseline", str(baseline), "--format", "json", str(tmp_path)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["active"] == 0
        reasons = {f["suppress_reason"] for f in doc["suppressed_findings"]}
        assert "baselined" in reasons

    def test_new_finding_still_fails(self, tmp_path, capsys):
        mod = _write(tmp_path / "mod.py", VIOLATING)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()
        # A second, distinct violation appears after the snapshot.
        mod.write_text(
            mod.read_text()
            + textwrap.dedent(
                """\

                def worse(bw, cap):
                    return bw != cap
                """
            )
        )
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 1

    def test_count_exceeded_fails(self, tmp_path, capsys):
        mod = _write(tmp_path / "mod.py", VIOLATING)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(tmp_path)]) == 0
        capsys.readouterr()
        # The same violation duplicated: occurrence 2 exceeds the count.
        mod.write_text(
            mod.read_text()
            + textwrap.dedent(
                """\

                def same_again(t_end, deadline):
                    return t_end == deadline
                """
            )
        )
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 1

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        _write(tmp_path / "mod.py", CLEAN)
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}')
        assert main(["--baseline", str(bad), str(tmp_path)]) == 2
