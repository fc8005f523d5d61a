"""Tests for the metrics collector and report tables."""

import pytest

from repro.core import (
    Platform,
    ProblemInstance,
    Request,
    RequestSet,
    ScheduleResult,
    verify_schedule,
)
from repro.metrics import Table, evaluate, jain_index
from repro.schedulers import GreedyFlexible, WindowFlexible
from repro.workload import paper_flexible_workload


class TestJainIndex:
    def test_even_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_user_is_1_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


class TestEvaluate:
    def test_full_report(self):
        prob = paper_flexible_workload(2.0, 200, seed=4)
        result = WindowFlexible(t_step=200.0).schedule(prob)
        verify_schedule(prob.platform, prob.requests, result)
        report = evaluate(prob, result)
        assert report.scheduler == result.scheduler
        assert report.num_requests == 200
        assert 0.0 <= report.accept_rate <= 1.0
        assert 0.0 <= report.utilization_time_averaged <= 1.0
        assert report.mean_wait > 0  # window decisions happen after arrival
        assert report.max_wait >= report.mean_wait
        assert 0 < report.mean_granted_over_max <= 1.0
        assert 0 < report.port_jain_index <= 1.0
        assert set(report.guaranteed) == {0.5, 0.8, 1.0}

    def test_greedy_has_zero_wait(self):
        prob = paper_flexible_workload(2.0, 200, seed=4)
        report = evaluate(prob, GreedyFlexible().schedule(prob))
        assert report.mean_wait == pytest.approx(0.0)

    def test_guaranteed_monotone_in_f(self):
        prob = paper_flexible_workload(2.0, 300, seed=5)
        report = evaluate(prob, GreedyFlexible().schedule(prob), fractions=(0.2, 0.5, 1.0))
        assert report.guaranteed[0.2] >= report.guaranteed[0.5] >= report.guaranteed[1.0]


class TestEvaluateEdgeCases:
    """evaluate() must stay finite on degenerate schedules (no div-by-zero)."""

    def _request(self, rid: int = 0) -> Request:
        return Request(
            rid=rid, ingress=0, egress=0, volume=100.0, t_start=0.0, t_end=100.0, max_rate=10.0
        )

    def test_empty_schedule(self):
        prob = ProblemInstance(platform=Platform.uniform(2, 2, 10.0), requests=RequestSet())
        report = evaluate(prob, ScheduleResult(scheduler="noop"))
        assert report.num_requests == 0
        assert report.accept_rate == 0.0
        assert report.resource_utilization == 0.0
        assert report.utilization_time_averaged == 0.0
        assert report.mean_wait == 0.0 and report.max_wait == 0.0
        assert report.mean_granted_over_max == 0.0
        assert report.mean_transfer_duration == 0.0
        assert report.port_jain_index == 1.0
        assert all(rate == 0.0 for rate in report.guaranteed.values())

    def test_all_rejected(self):
        requests = RequestSet([self._request(0), self._request(1), self._request(2)])
        prob = ProblemInstance(platform=Platform.uniform(2, 2, 10.0), requests=requests)
        result = ScheduleResult(
            rejected={0, 1, 2},
            scheduler="noop",
            rejection_reasons={0: "capacity", 1: "capacity", 2: "deadline"},
        )
        report = evaluate(prob, result)
        assert report.num_requests == 3
        assert report.accept_rate == 0.0
        assert report.mean_wait == 0.0
        assert report.mean_granted_over_max == 0.0
        assert report.port_jain_index == 1.0
        assert all(rate == 0.0 for rate in report.guaranteed.values())

    def test_single_request(self):
        from repro.core import Allocation

        requests = RequestSet([self._request(0)])
        prob = ProblemInstance(platform=Platform.uniform(2, 2, 10.0), requests=requests)
        result = ScheduleResult(
            accepted={0: Allocation(rid=0, ingress=0, egress=0, bw=10.0, sigma=0.0, tau=10.0)},
            scheduler="noop",
        )
        report = evaluate(prob, result)
        assert report.num_requests == 1
        assert report.accept_rate == 1.0
        assert report.mean_wait == 0.0
        assert report.mean_granted_over_max == pytest.approx(1.0)
        assert report.mean_transfer_duration == pytest.approx(10.0)
        assert 0.0 < report.port_jain_index <= 1.0
        assert report.guaranteed[1.0] == pytest.approx(1.0)


class TestTable:
    def _table(self):
        t = Table(["name", "value"], title="demo")
        t.add_row("a", 1.5)
        t.add_row("b", 0.25)
        return t

    def test_text(self):
        text = self._table().to_text()
        assert "demo" in text
        assert "a" in text and "0.2500" in text

    def test_markdown(self):
        md = self._table().to_markdown()
        assert md.count("|") > 6
        assert "---" in md

    def test_csv_roundtrip(self, tmp_path):
        t = self._table()
        path = tmp_path / "t.csv"
        t.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 3

    def test_column(self):
        assert self._table().column("name") == ["a", "b"]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            self._table().add_row("only-one")
