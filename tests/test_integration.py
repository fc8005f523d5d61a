"""Cross-module integration tests.

These exercise whole pipelines: every registered experiment runs end to
end at a tiny size; every registered scheduler produces a verifiable
schedule on its kind of workload; rejection diagnostics are consistent.
"""

import pytest

from repro.core import verify_schedule
from repro.experiments import FIGURES
from repro.metrics import Table, evaluate
from repro.schedulers import RIGID_SCHEDULERS, available_schedulers, make_scheduler
from repro.workload import paper_flexible_workload, paper_rigid_workload

# experiments that take no workload-size parameters
_NO_SIZE = {"rtt-unfairness"}
# custom tiny parameterisations where the generic one doesn't fit
_CUSTOM = {
    "localsearch": dict(loads=(8.0,), n_requests=40, iterations=20, seeds=(0,)),
    "coallocation": dict(fs=("min-bw", 1.0), n_jobs=60, seeds=(0,)),
    "optgap": dict(gaps=(2.0,), n_requests=25, seeds=(0,)),
}


class TestEveryExperimentRuns:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_experiment(self, name):
        fn = FIGURES[name]
        if name in _NO_SIZE:
            table, chart = fn()
        elif name in _CUSTOM:
            table, chart = fn(**_CUSTOM[name])
        else:
            table, chart = fn(n_requests=80, seeds=(0,))
        assert isinstance(table, Table)
        assert table.rows
        # every table renders in all three formats
        assert table.to_text()
        assert table.to_markdown()
        assert table.to_csv()


class TestEverySchedulerVerifies:
    @pytest.mark.parametrize("name", sorted(available_schedulers()))
    def test_scheduler(self, name):
        if name in RIGID_SCHEDULERS:
            problem = paper_rigid_workload(6.0, 60, seed=5)
        else:
            problem = paper_flexible_workload(1.0, 60, seed=5)
        options = {"iterations": 20, "restarts": 1} if name == "localsearch" else {}
        scheduler = make_scheduler(name, **options)
        result = scheduler.schedule(problem)
        verify_schedule(problem.platform, problem.requests, result)
        assert result.num_decided == problem.num_requests
        # metrics pipeline consumes any scheduler's result
        report = evaluate(problem, result)
        assert 0.0 <= report.accept_rate <= 1.0


class TestRejectionDiagnostics:
    def test_reasons_cover_all_rejections(self):
        problem = paper_flexible_workload(0.3, 300, seed=7)
        for name in ("greedy", "window", "bookahead", "retry-greedy"):
            result = make_scheduler(name).schedule(problem)
            assert set(result.rejection_reasons) == result.rejected

    def test_breakdown_sums(self):
        problem = paper_flexible_workload(0.3, 300, seed=8)
        result = make_scheduler("window").schedule(problem)
        breakdown = result.rejection_breakdown()
        assert sum(breakdown.values()) == result.num_rejected
        assert set(breakdown) <= {"capacity", "deadline"}

    def test_window_reports_deadline_kills(self):
        # long epochs: most rejections at heavy load come from the batching
        # delay blowing deadlines
        problem = paper_flexible_workload(0.3, 300, seed=9)
        result = make_scheduler("window", t_step=3200.0).schedule(problem)
        breakdown = result.rejection_breakdown()
        assert breakdown.get("deadline", 0) > 0
