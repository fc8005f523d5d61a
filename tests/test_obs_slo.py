"""Tests for the SLO watchdog (repro.obs.slo).

Declarative rules over windowed aggregates, edge-triggered breach
events, the live gateway integration, the offline artifact replay and
the ``grid-obs slo`` subcommand.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, Gateway
from repro.obs import (
    RunTelemetry,
    SloRule,
    SloWatchdog,
    Telemetry,
    default_slo_rules,
    evaluate_artifact,
    load_rules,
)
from repro.obs.cli import main
from repro.obs.slo import SloRuleError


def platform(n=4, cap=1000.0):
    return Platform.uniform(n, n, cap)


def load_bench_chaos():
    """``benchmarks/bench_chaos.py``, whose scaled-down chaos matrix the
    live-versus-offline check runs."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_chaos.py"
    spec = importlib.util.spec_from_file_location("bench_chaos", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRules:
    def test_unknown_metric_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "cpu_load", "floor", 0.5)

    def test_bad_bound_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "accept_rate", "between", 0.5)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SloRuleError):
            SloRule("r", "accept_rate", "floor", 0.5, window=0.0)

    def test_floor_and_ceiling_semantics(self):
        floor = SloRule("f", "accept_rate", "floor", 0.5)
        assert floor.violated(0.49) and not floor.violated(0.5)
        ceiling = SloRule("c", "backlog_depth", "ceiling", 4.0)
        assert ceiling.violated(4.1) and not ceiling.violated(4.0)

    def test_dict_roundtrip_maps_infinite_window_to_none(self):
        rule = SloRule("r", "accept_rate", "floor", 0.5)
        data = rule.to_dict()
        assert data["window"] is None
        assert SloRule.from_dict(data) == rule
        windowed = SloRule("w", "backlog_depth", "ceiling", 4.0, window=60.0)
        assert SloRule.from_dict(windowed.to_dict()) == windowed

    def test_missing_key_raises(self):
        with pytest.raises(SloRuleError):
            SloRule.from_dict({"name": "r", "metric": "accept_rate"})

    def test_duplicate_rule_names_rejected(self):
        rule = SloRule("dup", "accept_rate", "floor", 0.5)
        with pytest.raises(SloRuleError):
            SloWatchdog([rule, rule])

    def test_default_rules_scale_to_gateway_knobs(self):
        rules = {r.name: r for r in default_slo_rules(hold_ttl=100.0, rpc_deadline=90.0)}
        assert rules["hold-age-ceiling"].threshold == pytest.approx(150.0)
        assert rules["admission-p99-ceiling"].threshold == pytest.approx(720.0)
        assert default_slo_rules()[1].threshold == pytest.approx(480.0)
        # The gateway never parks beyond its backlog limit: no rule bounds it.
        assert "backlog_depth" not in {r.metric for r in default_slo_rules()}


class TestWatchdog:
    def test_accept_rate_floor_breaches(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        dog.admission(2.0, accepted=False, latency=0.0)
        breaches = dog.evaluate(2.0)
        assert len(breaches) == 1
        assert breaches[0].value == 0.0 and breaches[0].at == 2.0
        assert not dog.ok

    def test_no_data_is_not_a_breach(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        assert dog.evaluate(10.0) == [] and dog.ok

    def test_breaches_are_edge_triggered(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        assert len(dog.evaluate(1.0)) == 1
        assert dog.evaluate(2.0) == []  # still violated: no new breach
        dog.admission(3.0, accepted=True, latency=0.0)
        dog.admission(3.5, accepted=True, latency=0.0)
        assert dog.evaluate(4.0) == []  # recovered
        for t in (5.0, 6.0, 7.0):
            dog.admission(t, accepted=False, latency=0.0)
        assert len(dog.evaluate(7.0)) == 1  # re-crossed: one fresh breach
        assert len(dog.breaches) == 2

    def test_windowing_forgets_old_admissions(self):
        dog = SloWatchdog(
            [SloRule("floor", "accept_rate", "floor", 0.5, window=10.0)]
        )
        dog.admission(0.0, accepted=False, latency=0.0)
        dog.admission(50.0, accepted=True, latency=0.0)
        assert dog.evaluate(55.0) == []  # the rejection aged out
        assert dog.ok

    def test_p99_latency_ceiling(self):
        # With 10 decisions the p99 is the max: one slow admission breaches.
        dog = SloWatchdog([SloRule("p99", "p99_admission_latency", "ceiling", 10.0)])
        for k in range(9):
            dog.admission(float(k), accepted=True, latency=1.0)
        assert dog.evaluate(9.0) == []
        dog.admission(9.0, accepted=True, latency=500.0)
        (breach,) = dog.evaluate(10.0)
        assert breach.value == pytest.approx(500.0)

    def test_p99_tolerates_a_true_one_percent_tail(self):
        dog = SloWatchdog([SloRule("p99", "p99_admission_latency", "ceiling", 10.0)])
        for k in range(199):
            dog.admission(float(k), accepted=True, latency=1.0)
        dog.admission(199.0, accepted=True, latency=500.0)  # 0.5% of decisions
        assert dog.evaluate(200.0) == []

    def test_sampled_metric_uses_worst_case_in_window(self):
        dog = SloWatchdog([SloRule("depth", "backlog_depth", "ceiling", 4.0)])
        dog.sample("backlog_depth", 1.0, 6.0)
        dog.sample("backlog_depth", 2.0, 1.0)
        (breach,) = dog.evaluate(2.0)
        assert breach.value == pytest.approx(6.0)  # the max, not the latest

    def test_breach_emits_event_counter_and_flight_row(self):
        telemetry = Telemetry()
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        dog.admission(1.0, accepted=False, latency=0.0)
        dog.evaluate(1.0, telemetry=telemetry)
        events = [e for e in telemetry.events if e.name == "slo.breach"]
        assert len(events) == 1 and events[0].fields["rule"] == "floor"
        counter = telemetry.metrics.counter("slo_breaches_total", "")
        samples = {tuple(sorted(labels.items())): value for labels, value in counter.samples()}
        assert samples[(("rule", "floor"),)] == 1.0

    def test_report_shape(self):
        dog = SloWatchdog(default_slo_rules())
        report = dog.report()
        assert report["ok"] is True and report["breaches"] == []
        assert {r["name"] for r in report["rules"]} >= {"accept-rate-floor"}


class TestGatewayIntegration:
    def drive(self, gw, n=10):
        for k in range(n):
            gw.submit(
                ingress=k % 4,
                egress=(k + 1) % 4,
                volume=50.0,
                deadline=100.0 + k,
                now=float(k),
            )
        gw.drain(200.0)

    def test_healthy_run_stays_ok(self):
        dog = SloWatchdog(default_slo_rules(hold_ttl=120.0))
        gw = Gateway(platform(), num_shards=2, batch_size=2, hold_ttl=120.0, slo=dog)
        self.drive(gw)
        assert dog.ok, dog.breaches

    def test_watchdog_is_fed_without_telemetry(self):
        dog = SloWatchdog(default_slo_rules(hold_ttl=120.0))
        gw = Gateway(platform(), num_shards=2, batch_size=2, hold_ttl=120.0, slo=dog)
        assert not gw.telemetry.enabled
        self.drive(gw)
        counted = [judge.n for judge in dog._judges if judge.rule.metric == "accept_rate"]
        assert counted == [10], "decisions must reach the watchdog under NullTelemetry"

    def test_partitioned_gateway_breaches_accept_rate(self):
        dog = SloWatchdog([SloRule("floor", "accept_rate", "floor", 0.5)])
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=1,
            chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0),
            slo=dog,
            telemetry=telemetry,
        )
        # Cross-shard requests into a dead shard: all reject.
        for k in range(6):
            gw.submit(ingress=0, egress=3, volume=10.0, deadline=50.0 + k, now=float(k))
        gw.drain(60.0)
        assert not dog.ok
        assert any(e.name == "slo.breach" for e in telemetry.events)


class TestOfflineEvaluation:
    def _artifact(self, *, chaos=None):
        telemetry = Telemetry()
        gw = Gateway(
            platform(),
            num_shards=2,
            batch_size=2,
            chaos=chaos,
            telemetry=telemetry,
        )
        for k in range(8):
            gw.submit(
                ingress=0,
                egress=3,
                volume=10.0,
                deadline=100.0 + k,
                now=float(k),
            )
        gw.drain(200.0)
        artifact = RunTelemetry("slo-test")
        artifact.capture("run", telemetry)
        return artifact

    def test_clean_artifact_passes_default_rules(self):
        verdict = evaluate_artifact(self._artifact(), default_slo_rules())
        assert verdict["ok"] is True
        assert verdict["captures"][0]["label"] == "run"

    def test_partitioned_artifact_breaches(self):
        artifact = self._artifact(chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0))
        verdict = evaluate_artifact(
            artifact, [SloRule("floor", "accept_rate", "floor", 0.5)]
        )
        assert verdict["ok"] is False
        assert verdict["captures"][0]["breaches"]

    def test_accepts_the_json_dict_form(self):
        artifact = self._artifact()
        as_dict = json.loads(artifact.to_json())
        assert evaluate_artifact(as_dict, default_slo_rules()) == evaluate_artifact(
            artifact, default_slo_rules()
        )


class TestRulesFileAndCli:
    def _rules_file(self, tmp_path, threshold=0.5):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "name": "floor",
                            "metric": "accept_rate",
                            "bound": "floor",
                            "threshold": threshold,
                            "window": None,
                        }
                    ]
                }
            )
        )
        return path

    def test_load_rules_dict_and_bare_list(self, tmp_path):
        path = self._rules_file(tmp_path)
        (rule,) = load_rules(path)
        assert rule.name == "floor" and rule.threshold == 0.5
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([rule.to_dict()]))
        assert load_rules(bare) == (rule,)

    def test_load_rules_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not-rules": 1}))
        with pytest.raises(SloRuleError):
            load_rules(path)

    @pytest.mark.parametrize("field", ["threshold", "window"])
    def test_a_nan_rule_is_refused(self, tmp_path, field):
        """A NaN compares false against everything, so the rule could
        never breach: an accept rate of 0 against a 0.5 floor raised nothing."""
        rule = {"name": "floor", "metric": "accept_rate", "bound": "floor", "threshold": 0.5}
        with pytest.raises(SloRuleError, match=field):
            SloRule.from_dict({**rule, field: float("nan")})
        path = tmp_path / "nan.json"
        path.write_text(json.dumps([{**rule, field: float("nan")}]))  # JSON's NaN literal
        with pytest.raises(SloRuleError):
            load_rules(path)

    @pytest.mark.parametrize(
        "entry",
        [
            3,
            ["floor", "accept_rate", "floor", 0.5],
            {"name": "f", "metric": "accept_rate", "bound": "floor", "threshold": "abc"},
            {"name": "f", "metric": "accept_rate", "bound": "floor", "threshold": 0.5,
             "window": [1]},
        ],
        ids=["number", "list", "threshold-abc", "window-list"],
    )
    def test_cli_refuses_a_malformed_rule_in_one_line(self, tmp_path, capsys, entry):
        """A malformed rules file is a usage error (exit 2, one line), not a
        traceback nor the breach status 1."""
        with pytest.raises(SloRuleError):
            SloRule.from_dict(entry)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [entry]}))
        art = self._artifact_file(tmp_path)
        assert main(["slo", str(art), "--rules", str(rules)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def _artifact_file(self, tmp_path, *, chaos=None):
        telemetry = Telemetry()
        gw = Gateway(platform(), num_shards=2, batch_size=2, chaos=chaos, telemetry=telemetry)
        for k in range(6):
            gw.submit(ingress=0, egress=3, volume=10.0, deadline=60.0 + k, now=float(k))
        gw.drain(100.0)
        artifact = RunTelemetry("slo-cli")
        artifact.capture("run", telemetry)
        path = tmp_path / "run.json"
        artifact.save(path)
        return path

    def test_cli_ok_exits_zero(self, tmp_path, capsys):
        art = self._artifact_file(tmp_path)
        assert main(["slo", str(art)]) == 0
        assert "slo: ok" in capsys.readouterr().out

    def test_cli_breach_exits_one(self, tmp_path, capsys):
        art = self._artifact_file(
            tmp_path, chaos=ChaosPolicy.with_partition(1, 0.0, 1000.0)
        )
        rules = self._rules_file(tmp_path)
        assert main(["slo", str(art), "--rules", str(rules)]) == 1
        out = capsys.readouterr().out
        assert "BREACH" in out and "accept_rate" in out

    def test_cli_json_verdict(self, tmp_path, capsys):
        art = self._artifact_file(tmp_path)
        assert main(["slo", str(art), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True and verdict["captures"]


class TestLiveMatchesOffline:
    """The live watchdog judges the decisions ``grid-obs slo`` replays: a
    first decision's ``gateway.submit`` event, not a backlog re-admission
    attempt (which no artifact records)."""

    #: Tight bounds over every fed metric, whole-run and over 30 s, so the
    #: chaos scenarios cross them (and a re-admission's latency would
    #: raise a p99 breach of its own).
    TIGHT = [
        SloRule(f"{metric}-{span}", metric, bound, threshold, window)
        for metric, bound, threshold in (
            ("accept_rate", "floor", 0.9),
            ("p99_admission_latency", "ceiling", 20.0),
            ("max_hold_age", "ceiling", 10.0),
            ("backlog_depth", "ceiling", 0.5),
        )
        for span, window in (("run", float("inf")), ("30s", 30.0))
    ]

    def test_every_chaos_cell_gets_its_live_verdict_offline(self):
        bench = load_bench_chaos()
        report = bench.chaos_matrix(slo_rules=self.TIGHT)
        assert len(report.cells) == 10
        artifact = json.loads(report.telemetry.to_json())
        assert bench.offline_mismatches(report, artifact) == []
        breached = {b["rule"] for cell in report.cells for b in cell["slo"]["breaches"]}
        assert {"p99_admission_latency-30s", "backlog_depth-run"} <= breached
        assert any(cell["readmitted"] for cell in report.cells)

