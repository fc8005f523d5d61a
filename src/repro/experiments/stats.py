"""Statistical analysis of replicated experiments.

Accept-rate differences between heuristics are often a few points on
noisy Poisson workloads; these helpers make the comparisons honest:
t-based confidence intervals and a paired-by-seed comparison of two
schedulers (pairing removes the workload variance, which dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
from scipy import stats as sps

from ..core.problem import ProblemInstance
from ..schedulers.base import Scheduler

__all__ = [
    "t_confidence_interval",
    "SchedulerComparison",
    "compare_schedulers",
]


def t_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a degenerate ``(x, x)`` interval.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not (0 < confidence < 1):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return (mean, mean)
    half = float(sps.t.ppf(0.5 + confidence / 2, df=arr.size - 1)) * sem
    return (mean - half, mean + half)


@dataclass(frozen=True)
class SchedulerComparison:
    """Paired-by-seed comparison of two schedulers on one metric."""

    name_a: str
    name_b: str
    mean_a: float
    mean_b: float
    mean_diff: float
    diff_ci: tuple[float, float]
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """True when the paired difference is significant at 5 %."""
        return self.p_value < 0.05

    @property
    def winner(self) -> str | None:
        """Name of the significantly better scheduler, or ``None``."""
        if not self.significant:
            return None
        return self.name_a if self.mean_diff > 0 else self.name_b


def compare_schedulers(
    make_problem: Callable[[int], ProblemInstance],
    scheduler_a: Scheduler,
    scheduler_b: Scheduler,
    *,
    seeds: Sequence[int],
    metric: Callable[[ProblemInstance, object], float] | None = None,
    confidence: float = 0.95,
) -> SchedulerComparison:
    """Run both schedulers on identical seeded workloads and test the
    paired difference of ``metric`` (default: accept rate)."""
    if len(seeds) < 2:
        raise ValueError("paired comparison needs at least two seeds")
    if metric is None:
        metric = lambda problem, result: result.accept_rate  # noqa: E731

    a_vals, b_vals = [], []
    for seed in seeds:
        problem = make_problem(int(seed))
        a_vals.append(metric(problem, scheduler_a.schedule(problem)))
        b_vals.append(metric(problem, scheduler_b.schedule(problem)))
    a = np.asarray(a_vals)
    b = np.asarray(b_vals)
    diffs = a - b
    if np.allclose(diffs, diffs[0]):
        # identical differences: the t statistic is degenerate
        p_value = 0.0 if diffs[0] != 0 else 1.0
    else:
        p_value = float(sps.ttest_rel(a, b).pvalue)
    return SchedulerComparison(
        name_a=scheduler_a.name,
        name_b=scheduler_b.name,
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        mean_diff=float(diffs.mean()),
        diff_ci=t_confidence_interval(diffs, confidence),
        p_value=p_value,
        n=len(seeds),
    )
