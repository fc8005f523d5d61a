"""Fixture tests for the flow-sensitive rules GL011 / GL012.

Each rule gets fires-on-planted-violation and suppression coverage, plus
negative fixtures for the patterns the rules must stay quiet on (the
idioms ``gateway/twophase.py`` actually uses: lambda-wrapped verbs,
ownership transfer into result lists, try/except compensation).  The
fixtures of the retired GL013 / GL014 stay where they still describe a
mistake or a pattern the catalogue must accept.
"""

import json
import textwrap

from repro.analysis import all_rules, run_analysis
from repro.analysis.cli import main


def _scan(tmp_path, source, *, filename="mod.py"):
    (tmp_path / filename).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / filename).write_text(textwrap.dedent(source))
    return run_analysis([tmp_path], all_rules())


def _active(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


def _suppressed(report, rule_id):
    return [f for f in report.suppressed if f.rule == rule_id]


class TestGL011HoldLeak:
    def test_fires_on_early_return_leak(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, port):
                hold = channel.prepare(port)
                if port > 4:
                    return None
                channel.commit(hold.hold_id)
                return hold
            """,
        )
        findings = _active(report, "GL011")
        assert len(findings) == 1
        assert findings[0].line == 2  # reported at the acquire site
        assert "normal return path" in findings[0].message

    def test_fires_on_exception_path_leak(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, other, port):
                hold = channel.prepare(port)
                probe = other.prepare(port)
                channel.commit(hold.hold_id)
                other.commit(probe.hold_id)
            """,
        )
        findings = _active(report, "GL011")
        # If other.prepare raises, `hold` leaks; if channel.commit raises,
        # `probe` leaks.
        assert {(f.line, "exception path" in f.message) for f in findings} == {
            (2, True),
            (3, True),
        }

    def test_fires_on_discarded_prepare(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, port):
                channel.prepare(port)
            """,
        )
        findings = _active(report, "GL011")
        assert len(findings) == 1
        assert "discarded" in findings[0].message

    def test_quiet_on_try_finally_resolution(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, port):
                hold = channel.prepare(port)
                try:
                    use(hold)
                finally:
                    channel.abort_hold(hold.hold_id)
            """,
        )
        assert _active(report, "GL011") == []

    def test_quiet_on_ownership_transfer(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def place(channel, port, placed):
                hold = channel.prepare(port)
                placed.append((channel, hold))

            def passthrough(broker, side, port):
                return broker.prepare(side, port)
            """,
        )
        assert _active(report, "GL011") == []

    def test_quiet_on_lambda_wrapped_verbs(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(self, channel, port):
                hold = self._with_retry(lambda: channel.prepare(port))
                self._with_retry(lambda h=hold: channel.commit(h.hold_id))
            """,
        )
        assert _active(report, "GL011") == []

    def test_quiet_on_none_guard(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, port):
                hold = channel.prepare(port)
                if hold is None:
                    return None
                channel.commit(hold.hold_id)
            """,
        )
        assert _active(report, "GL011") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def admit(channel, port):
                hold = channel.prepare(port)  # gridlint: disable=GL011 -- TTL sweep owns cleanup here
                return None
            """,
        )
        assert _active(report, "GL011") == []
        assert len(_suppressed(report, "GL011")) == 1


class TestGL012TwoPhase:
    def test_fires_on_commit_before_prepare(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def resolve(channel, hold, port):
                channel.commit(hold.hold_id)
                h2 = channel.prepare(port)
                channel.commit(h2.hold_id)
            """,
        )
        findings = _active(report, "GL012")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "order" in findings[0].message

    def test_fires_on_unkeyed_double_resolution(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def resolve(channel, port):
                hold = channel.prepare(port)
                channel.commit(hold.hold_id)
                channel.commit(hold.hold_id)
            """,
        )
        findings = _active(report, "GL012")
        assert len(findings) == 1
        assert "resolved twice" in findings[0].message

    def test_quiet_on_keyed_double_resolution(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def resolve(channel, port, rid):
                hold = channel.prepare(port)
                channel.commit(hold.hold_id, key=(rid, "in"))
                channel.commit(hold.hold_id, key=(rid, "in"))
            """,
        )
        assert _active(report, "GL012") == []

    def test_fires_on_rid_reuse_direct(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def readmit(request, now):
                return Request(rid=request.rid, t0=now)
            """,
        )
        findings = _active(report, "GL012")
        assert len(findings) == 1
        assert "fresh rid" in findings[0].message

    def test_fires_on_rid_reuse_via_local(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def readmit(request, now):
                stale = request.rid
                return replace(request, rid=stale, t0=now)
            """,
        )
        assert len(_active(report, "GL012")) == 1

    def test_quiet_on_fresh_rid(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def readmit(self, request, now):
                return Request(rid=self._take_rid(), t0=now)
            """,
        )
        assert _active(report, "GL012") == []

    def test_quiet_inside_reshape_tail(self, tmp_path):
        # The in-place reshape verb re-carves an existing reservation's
        # tail under the same rid on purpose (the rid never becomes a
        # broker idempotency key); the sanctioned exemption covers exactly
        # the `reshape_tail` function name.
        body = (
            "    release_from = max(now, reservation.allocation.sigma)\n"
            "    return Request(rid=reservation.rid, t0=release_from)\n"
        )
        report = _scan(
            tmp_path / "a",
            f"def reshape_tail(reservation, now):\n{body}",
        )
        assert _active(report, "GL012") == []
        # Any other function reusing a rid still fires.
        report = _scan(
            tmp_path / "b",
            f"def _rebook_tail(reservation, now):\n{body}",
        )
        assert len(_active(report, "GL012")) == 1

    def test_quiet_on_compensating_abort(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def resolve(channel, port):
                hold = channel.prepare(port)
                try:
                    channel.commit(hold.hold_id)
                except Exception:
                    channel.abort_hold(hold.hold_id)
            """,
        )
        assert _active(report, "GL012") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def readmit(request, now):
                return Request(rid=request.rid, t0=now)  # gridlint: disable=GL012 -- replay reconstruction reuses rids by design
            """,
        )
        assert _active(report, "GL012") == []
        assert len(_suppressed(report, "GL012")) == 1


class TestGL013NondetTaint:
    """GL013 was retired: a wall-clock or ambient-RNG value reaching a
    journal, ``_record``, recorder, ``RejectReason`` or ``SloBreach`` sink
    starts at a call GL001 / GL002 flag in the same module, so each
    fixture fires there — once, at the source."""

    def test_fires_on_wall_clock_into_journal(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import time

            def log_op(journal, op):
                stamp = time.time()
                entry = (op, stamp + 1.0)
                journal.append(entry)
            """,
        )
        (finding,) = report.findings
        assert finding.rule == "GL001" and "time.time" in finding.message

    def test_fires_through_one_level_wrapper(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import time

            def _stamp():
                return time.time()

            def log_op(journal, op):
                journal.append((op, _stamp()))
            """,
        )
        assert [f.rule for f in report.findings] == ["GL001"]

    def test_fires_on_rng_into_record(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import random

            def decide(self, rid):
                jitter = random.random()
                self._record("admit", rid=rid, jitter=jitter)
            """,
        )
        (finding,) = report.findings
        assert finding.rule == "GL002" and "random.random" in finding.message

    def test_fires_on_taint_into_reject_reason(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import time

            def reject(self):
                detail = f"at {time.time()}"
                return RejectReason(code=7, detail=detail)
            """,
        )
        assert [f.rule for f in report.findings] == ["GL001"]

    def test_quiet_on_simulated_time(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def log_op(journal, op, now):
                journal.append((op, now))
            """,
        )
        assert report.findings == []

    def test_quiet_on_seeded_rng(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import random

            def decide(self, rid, seed):
                rng = random.Random(seed)
                self._record("admit", rid=rid, jitter=rng.random())
            """,
        )
        assert report.findings == []

    def test_fires_on_wall_clock_into_flight_recorder(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import time

            def note(self, component, kind):
                stamp = time.time()
                self.recorder.record(component, stamp, kind)
            """,
        )
        (finding,) = report.findings
        assert finding.rule == "GL001" and "time.time" in finding.message

    def test_fires_on_rng_into_slo_breach(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import random

            def breach(rule):
                observed = random.random()
                return SloBreach(
                    rule=rule.name,
                    metric=rule.metric,
                    bound=rule.bound,
                    threshold=rule.threshold,
                    value=observed,
                    at=0.0,
                )
            """,
        )
        (finding,) = report.findings
        assert finding.rule == "GL002"

    def test_quiet_on_recorder_fed_simulated_time(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def note(self, component, kind, now):
                self.recorder.record(component, now, kind)
            """,
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import time

            def log_op(journal, op):
                journal.append((op, time.time()))  # gridlint: disable=GL001 -- wall time wanted in this debug journal
            """,
        )
        assert report.findings == []
        assert len(_suppressed(report, "GL001")) == 1


class TestGL014ShardAliasing:
    """GL014 left with the parked process-per-shard item; its quiet
    fixture stays: reading, copying or borrowing a broker's tables outside
    its owners is not a write GL004 guards."""

    def test_quiet_on_copies_reads_and_borrows(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            from heapq import heappush

            class ShardBroker:
                def snapshot(self):
                    return dict(self._holds)

                def sweep(self, now):
                    heappush(self._heap, now)
                    return sorted(self._holds), len(self._heap)

                def lookup(self, hold_id):
                    return self._holds[hold_id].rid

                def contains(self, hold_id):
                    return hold_id in self._holds

                def tally(self, other):
                    return self._merge(self._holds)
            """,
        )
        assert report.findings == []


class TestPlantedPackageEndToEnd:
    """One temp package planting a violation of each flow rule plus a
    wall-clock value journaled; the CLI must gate on all three rules."""

    def test_cli_gates_on_all_flow_rules(self, tmp_path, capsys):
        pkg = tmp_path / "planted"
        pkg.mkdir()
        (pkg / "leaks.py").write_text(
            textwrap.dedent(
                """\
                import time


                def admit(channel, port):
                    hold = channel.prepare(port)
                    if port > 4:
                        return None
                    channel.commit(hold.hold_id)
                    return hold


                def readmit(request, now):
                    return Request(rid=request.rid, t0=now)


                def log_op(journal, op):
                    journal.append((op, time.time() + 1.0))
                """
            )
        )
        code = main(["--format", "json", str(pkg)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        seen = {f["rule"] for f in payload["findings"]}
        assert seen == {"GL001", "GL011", "GL012"}
