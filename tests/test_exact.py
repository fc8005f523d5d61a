"""Tests for the exact solvers: 3-DM, the Theorem 1 reduction, MILP, B&B,
LP bound, and the polynomial single-pair algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    Platform,
    ProblemInstance,
    Request,
    RequestSet,
    verify_schedule,
)
from repro.exact import (
    ThreeDMInstance,
    edf_single_pair_unit,
    greedy_single_pair_rigid,
    max_requests_rigid_bb,
    max_requests_rigid_exact,
    max_requests_unit_slotted_exact,
    random_3dm,
    reduce_3dm,
    rigid_lp_bound,
    schedule_from_matching,
    solve_3dm,
)
from repro.schedulers import cumulated_slots, minbw_slots
from repro.workload import paper_rigid_workload


class TestThreeDM:
    def test_trivial_yes(self):
        inst = ThreeDMInstance(2, [(0, 0, 0), (1, 1, 1)])
        assert solve_3dm(inst) == (0, 1)

    def test_trivial_no(self):
        inst = ThreeDMInstance(2, [(0, 0, 0), (1, 1, 0)])  # share z = 0
        assert solve_3dm(inst) is None

    def test_needs_all_x_covered(self):
        inst = ThreeDMInstance(2, [(0, 0, 0), (0, 1, 1)])  # x = 1 uncovered
        assert solve_3dm(inst) is None

    def test_is_matching(self):
        inst = ThreeDMInstance(2, [(0, 0, 0), (1, 1, 1), (1, 0, 1)])
        assert inst.is_matching([0, 1])
        assert not inst.is_matching([0, 2])  # share y = 0
        assert not inst.is_matching([0])     # wrong size

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThreeDMInstance(0, [])
        with pytest.raises(ConfigurationError):
            ThreeDMInstance(2, [(0, 0, 5)])
        with pytest.raises(ConfigurationError):
            ThreeDMInstance(2, [(0, 0, 0), (0, 0, 0)])

    def test_planted_instances_solve(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            inst = random_3dm(n, num_extra=2 * n, rng=rng, plant_matching=True)
            assert solve_3dm(inst) is not None

    def test_backtracker_matches_bruteforce(self):
        from itertools import combinations

        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = random_3dm(3, num_extra=4, rng=rng, plant_matching=False)
            brute = any(
                inst.is_matching(sel) for sel in combinations(range(inst.num_triples), inst.n)
            )
            assert (solve_3dm(inst) is not None) == brute


class TestReduction:
    def test_structure(self):
        inst = ThreeDMInstance(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2)])
        reduced = reduce_3dm(inst)
        n = 3
        assert reduced.problem.platform.num_ingress == n + 1
        assert reduced.problem.platform.bin(n) == n - 1
        assert reduced.problem.platform.bin(0) == 1.0
        assert reduced.num_regular == 4
        assert reduced.num_special == 2 * n * (n - 1)
        assert reduced.target == n + 2 * n * (n - 1)

    def test_requires_n_at_least_2(self):
        with pytest.raises(ConfigurationError):
            reduce_3dm(ThreeDMInstance(1, [(0, 0, 0)]))

    def test_forward_direction_constructive(self):
        """3-DM solvable -> the proof's schedule accepts exactly K requests
        and satisfies every constraint."""
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            inst = random_3dm(n, num_extra=n, rng=rng, plant_matching=True)
            matching = solve_3dm(inst)
            assert matching is not None
            reduced = reduce_3dm(inst)
            schedule = schedule_from_matching(reduced, matching)
            verify_schedule(reduced.problem.platform, reduced.problem.requests, schedule)
            assert schedule.num_accepted == reduced.target

    def test_constructive_rejects_non_matching(self):
        inst = ThreeDMInstance(2, [(0, 0, 0), (1, 1, 1), (1, 0, 1)])
        reduced = reduce_3dm(inst)
        with pytest.raises(ConfigurationError):
            schedule_from_matching(reduced, (0, 2))

    def test_theorem1_equivalence_exact(self):
        """3-DM solvable <-> K requests schedulable (checked by MILP)."""
        rng = np.random.default_rng(11)
        solvable_seen = unsolvable_seen = 0
        for trial in range(14):
            plant = trial % 2 == 0
            inst = random_3dm(2, num_extra=3, rng=rng, plant_matching=plant)
            reduced = reduce_3dm(inst)
            schedule = max_requests_unit_slotted_exact(reduced.problem)
            verify_schedule(reduced.problem.platform, reduced.problem.requests, schedule)
            has_matching = solve_3dm(inst) is not None
            reaches_target = schedule.num_accepted >= reduced.target
            assert has_matching == reaches_target
            solvable_seen += has_matching
            unsolvable_seen += not has_matching
        assert solvable_seen and unsolvable_seen  # both branches exercised

    def test_theorem1_equivalence_n3(self):
        rng = np.random.default_rng(13)
        for plant in (True, False):
            inst = random_3dm(3, num_extra=3, rng=rng, plant_matching=plant)
            reduced = reduce_3dm(inst)
            schedule = max_requests_unit_slotted_exact(reduced.problem)
            assert (solve_3dm(inst) is not None) == (schedule.num_accepted >= reduced.target)


class TestRigidExactSolvers:
    def _small_problem(self, seed, n=12, load=6.0):
        return paper_rigid_workload(load, n, seed=seed)

    def test_milp_beats_or_ties_heuristics(self):
        for seed in range(5):
            prob = self._small_problem(seed)
            exact = max_requests_rigid_exact(prob)
            verify_schedule(prob.platform, prob.requests, exact)
            for heuristic in (cumulated_slots(), minbw_slots()):
                assert exact.num_accepted >= heuristic.schedule(prob).num_accepted

    def test_bb_agrees_with_milp(self):
        for seed in range(8):
            prob = self._small_problem(seed + 100, n=14)
            assert (
                max_requests_rigid_bb(prob).num_accepted
                == max_requests_rigid_exact(prob).num_accepted
            )

    def test_lp_bound_dominates(self):
        for seed in range(5):
            prob = self._small_problem(seed + 200, n=16)
            bound = rigid_lp_bound(prob)
            assert max_requests_rigid_exact(prob).num_accepted <= bound + 1e-6

    def test_empty(self):
        prob = ProblemInstance(Platform.uniform(2, 2, 10.0), RequestSet())
        assert max_requests_rigid_exact(prob).num_decided == 0
        assert max_requests_rigid_bb(prob).num_decided == 0
        assert rigid_lp_bound(prob) == 0.0

    def test_rejects_flexible(self):
        flex = Request(0, 0, 1, volume=10.0, t_start=0.0, t_end=10.0, max_rate=5.0)
        prob = ProblemInstance(Platform.uniform(2, 2, 10.0), RequestSet([flex]))
        with pytest.raises(ConfigurationError):
            max_requests_rigid_exact(prob)
        with pytest.raises(ConfigurationError):
            max_requests_rigid_bb(prob)
        with pytest.raises(ConfigurationError):
            rigid_lp_bound(prob)

    def test_unconstrained_accepts_all(self):
        requests = RequestSet(
            [Request.rigid(i, 0, 1, volume=10.0, t_start=float(10 * i), t_end=float(10 * i + 5)) for i in range(4)]
        )
        prob = ProblemInstance(Platform.uniform(2, 2, 100.0), requests)
        assert max_requests_rigid_exact(prob).num_accepted == 4


def unit_request(rid, i, e, release, deadline):
    """Unit-bandwidth, one-slot request with window [release, deadline]."""
    return Request(rid, i, e, volume=1.0, t_start=float(release), t_end=float(deadline), max_rate=1.0)


class TestUnitSlottedExact:
    def test_simple_packing(self):
        # 2 slots, capacity 1: three requests, only two fit
        requests = RequestSet(
            [unit_request(0, 0, 0, 0, 2), unit_request(1, 0, 0, 0, 2), unit_request(2, 0, 0, 0, 2)]
        )
        prob = ProblemInstance(Platform.uniform(1, 1, 1.0), requests)
        result = max_requests_unit_slotted_exact(prob)
        assert result.num_accepted == 2
        verify_schedule(prob.platform, prob.requests, result)

    def test_rejects_misaligned(self):
        bad = Request(0, 0, 0, volume=1.0, t_start=0.5, t_end=2.5, max_rate=1.0)
        prob = ProblemInstance(Platform.uniform(1, 1, 1.0), RequestSet([bad]))
        with pytest.raises(ConfigurationError):
            max_requests_unit_slotted_exact(prob)

    def test_rejects_multi_slot(self):
        bad = Request(0, 0, 0, volume=2.0, t_start=0.0, t_end=4.0, max_rate=1.0)
        prob = ProblemInstance(Platform.uniform(1, 1, 1.0), RequestSet([bad]))
        with pytest.raises(ConfigurationError):
            max_requests_unit_slotted_exact(prob)


class TestSinglePair:
    def test_greedy_rigid_simple(self):
        # capacity 2 tracks of bw 1; three overlapping unit requests
        requests = RequestSet(
            [
                Request.rigid(0, 0, 0, volume=10.0, t_start=0.0, t_end=10.0),
                Request.rigid(1, 0, 0, volume=10.0, t_start=0.0, t_end=10.0),
                Request.rigid(2, 0, 0, volume=5.0, t_start=2.0, t_end=7.0),
            ]
        )
        prob = ProblemInstance(Platform.uniform(1, 1, 2.0), requests)
        result = greedy_single_pair_rigid(prob)
        verify_schedule(prob.platform, prob.requests, result)
        assert result.num_accepted == 2

    def test_greedy_rigid_matches_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            requests = []
            for rid in range(n):
                start = float(rng.integers(0, 10))
                length = float(rng.integers(1, 6))
                requests.append(
                    Request.rigid(rid, 0, 0, volume=length, t_start=start, t_end=start + length)
                )
            prob = ProblemInstance(Platform.uniform(1, 1, 2.0), RequestSet(requests))
            greedy = greedy_single_pair_rigid(prob)
            exact = max_requests_rigid_exact(prob)
            verify_schedule(prob.platform, prob.requests, greedy)
            assert greedy.num_accepted == exact.num_accepted

    def test_greedy_rejects_multi_pair(self):
        requests = RequestSet(
            [
                Request.rigid(0, 0, 0, volume=1.0, t_start=0.0, t_end=1.0),
                Request.rigid(1, 1, 0, volume=1.0, t_start=0.0, t_end=1.0),
            ]
        )
        prob = ProblemInstance(Platform.uniform(2, 2, 1.0), requests)
        with pytest.raises(ConfigurationError):
            greedy_single_pair_rigid(prob)

    def test_greedy_rejects_nonuniform(self):
        requests = RequestSet(
            [
                Request.rigid(0, 0, 0, volume=1.0, t_start=0.0, t_end=1.0),
                Request.rigid(1, 0, 0, volume=2.0, t_start=0.0, t_end=1.0),
            ]
        )
        prob = ProblemInstance(Platform.uniform(1, 1, 5.0), requests)
        with pytest.raises(ConfigurationError):
            greedy_single_pair_rigid(prob)

    def test_edf_simple(self):
        # capacity 1, two slots; three unit jobs, one must drop
        requests = RequestSet(
            [unit_request(0, 0, 0, 0, 1), unit_request(1, 0, 0, 0, 2), unit_request(2, 0, 0, 1, 2)]
        )
        prob = ProblemInstance(Platform.uniform(1, 1, 1.0), requests)
        result = edf_single_pair_unit(prob)
        verify_schedule(prob.platform, prob.requests, result)
        # EDF serves 0 at slot 0 (deadline 1), then one of {1, 2} at slot 1
        assert result.num_accepted == 2
        assert 0 in result.accepted

    def test_edf_matches_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 14))
            requests = []
            for rid in range(n):
                release = int(rng.integers(0, 6))
                deadline = release + int(rng.integers(1, 5))
                requests.append(unit_request(rid, 0, 0, release, deadline))
            capacity = float(rng.integers(1, 3))
            prob = ProblemInstance(Platform.uniform(1, 1, capacity), RequestSet(requests))
            edf = edf_single_pair_unit(prob)
            exact = max_requests_unit_slotted_exact(prob)
            verify_schedule(prob.platform, prob.requests, edf)
            assert edf.num_accepted == exact.num_accepted


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_heuristics_never_beat_exact(seed):
    """Property: no heuristic exceeds the exact optimum (sanity of both)."""
    prob = paper_rigid_workload(8.0, 12, seed=seed)
    exact = max_requests_rigid_exact(prob).num_accepted
    bound = rigid_lp_bound(prob)
    assert exact <= bound + 1e-6
    for heuristic in (cumulated_slots(), minbw_slots()):
        assert heuristic.schedule(prob).num_accepted <= exact


class TestWeightedExact:
    def test_weights_change_the_winner(self):
        # two conflicting unit requests: with weights the heavier one wins
        requests = RequestSet(
            [
                Request.rigid(0, 0, 0, volume=10.0, t_start=0.0, t_end=10.0),
                Request.rigid(1, 0, 0, volume=10.0, t_start=0.0, t_end=10.0),
            ]
        )
        prob = ProblemInstance(Platform.uniform(1, 1, 1.0), requests)
        plain = max_requests_rigid_exact(prob)
        assert plain.num_accepted == 1
        weighted = max_requests_rigid_exact(prob, weights={1: 5.0})
        assert 1 in weighted.accepted

    def test_weighted_objective_dominates(self):
        prob = paper_rigid_workload(8.0, 14, seed=3)
        weights = {r.rid: r.volume / 1e5 for r in prob.requests}
        weighted = max_requests_rigid_exact(prob, weights=weights)
        plain = max_requests_rigid_exact(prob)

        def value(result):
            return sum(weights[rid] for rid in result.accepted)

        assert value(weighted) >= value(plain) - 1e-9
        verify_schedule(prob.platform, prob.requests, weighted)

    def test_negative_weight_rejected(self):
        prob = paper_rigid_workload(4.0, 6, seed=1)
        with pytest.raises(ConfigurationError):
            max_requests_rigid_exact(prob, weights={0: -1.0})
