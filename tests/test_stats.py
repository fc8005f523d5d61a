"""Tests for the experiment statistics helpers."""

import numpy as np
import pytest

from repro.experiments.stats import (
    compare_schedulers,
    t_confidence_interval,
)
from repro.schedulers import FractionOfMaxPolicy, GreedyFlexible, WindowFlexible
from repro.workload import paper_flexible_workload


class TestTCI:
    def test_contains_mean(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = t_confidence_interval(samples)
        assert lo < 3.0 < hi

    def test_narrower_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = t_confidence_interval(rng.normal(0, 1, 5))
        large = t_confidence_interval(rng.normal(0, 1, 500))
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_single_sample_degenerate(self):
        assert t_confidence_interval([7.0]) == (7.0, 7.0)

    def test_constant_samples(self):
        assert t_confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_coverage(self):
        """~95% of intervals cover the true mean."""
        rng = np.random.default_rng(1)
        covered = 0
        trials = 400
        for _ in range(trials):
            lo, hi = t_confidence_interval(rng.normal(10.0, 2.0, 10))
            covered += lo <= 10.0 <= hi
        assert covered / trials == pytest.approx(0.95, abs=0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_confidence_interval([])
        with pytest.raises(ValueError):
            t_confidence_interval([1.0, 2.0], confidence=1.5)


class TestCompareSchedulers:
    def _make_problem(self, seed):
        return paper_flexible_workload(0.3, 250, seed=seed)

    def test_detects_real_difference(self):
        """WINDOW vs GREEDY under heavy load is a significant difference."""
        comparison = compare_schedulers(
            self._make_problem,
            WindowFlexible(t_step=400.0, policy=FractionOfMaxPolicy(1.0)),
            GreedyFlexible(policy=FractionOfMaxPolicy(1.0)),
            seeds=range(6),
        )
        assert comparison.mean_diff > 0
        assert comparison.significant
        assert comparison.winner == comparison.name_a
        assert comparison.diff_ci[0] > 0

    def test_identical_schedulers_not_significant(self):
        comparison = compare_schedulers(
            self._make_problem,
            GreedyFlexible(),
            GreedyFlexible(),
            seeds=range(4),
        )
        assert comparison.mean_diff == 0.0
        assert not comparison.significant
        assert comparison.winner is None

    def test_custom_metric(self):
        comparison = compare_schedulers(
            self._make_problem,
            GreedyFlexible(),
            GreedyFlexible(policy=FractionOfMaxPolicy(1.0)),
            seeds=range(3),
            metric=lambda problem, result: float(result.num_accepted),
        )
        assert comparison.n == 3

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            compare_schedulers(
                self._make_problem, GreedyFlexible(), GreedyFlexible(), seeds=[0]
            )
