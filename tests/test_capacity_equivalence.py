"""Production-vs-oracle fuzz: both kernels agree on random op streams.

One seeded stream drives the production :class:`BreakpointProfile` and
the reference oracle :class:`VectorProfile` (an independent numpy
implementation nothing in ``src/`` constructs) through the same
interleaving of mutations
(allocate-style adds, releases of previously-added intervals,
degradation-style negative adds) and queries (``usage_at`` /
``max_usage`` / ``min_usage`` / ``integral`` / ``segments``), asserting
agreement within :data:`repro.units.REL_TOL` at every step.  The two
reads the book-ahead search lives on (``breakpoints_between`` /
``blocker``) are compared with ``==`` at every check: a search that
skips candidates on their answers needs them exact, not close.  The
deliberate tolerance is belt-and-braces: the two classes are designed to be
*bit*-identical (same insertion positions, same addition order), and the
stricter exact check runs on the final segment lists.

Error behaviour is part of the contract too: reversed and zero-length
intervals must raise :class:`ValueError` on both classes.
"""

import math

import pytest

import numpy as np

from repro.core.capacity import BreakpointProfile, fits_under
from repro.core.capacity.vector import VectorProfile
from repro.units import close

from .conftest import KERNELS

SEEDS = [0, 1, 2, 7, 42, 1337]


def _random_interval(rng, horizon=1000.0):
    t0 = float(rng.uniform(0.0, horizon))
    t1 = t0 + float(rng.uniform(0.05, horizon / 4))
    return t0, t1


def _assert_profiles_agree(bp, vec, rng, horizon=1000.0):
    """Spot-check the query surface of both classes at random points."""
    for _ in range(4):
        t = float(rng.uniform(-10.0, horizon + 10.0))
        assert close(bp.usage_at(t), vec.usage_at(t))
    q0, q1 = _random_interval(rng, horizon)
    assert close(bp.max_usage(q0, q1), vec.max_usage(q0, q1))
    assert close(bp.min_usage(q0, q1), vec.min_usage(q0, q1))
    assert close(bp.integral(q0, q1), vec.integral(q0, q1))
    assert close(bp.global_max(), vec.global_max())
    assert close(bp.max_usage(q0, math.inf), vec.max_usage(q0, math.inf))
    assert bp.breakpoints_between(q0, q1) == vec.breakpoints_between(q0, q1)
    assert bp.breakpoints_between(-math.inf, q1) == vec.breakpoints_between(-math.inf, q1)
    # Capacities around the usage actually present, so that "fits",
    # "blocked by the last segment" and "blocked further back" all occur.
    peak = max(bp.max_usage(q0, q1), 1.0)
    for capacity in (0.5 * peak, peak, 1.5 * peak):
        for bw in (0.0, 0.3 * peak, 0.6 * peak, 2.0 * peak):
            blocked = bp.blocker(q0, q1, bw, capacity)
            assert blocked == vec.blocker(q0, q1, bw, capacity)
            assert (blocked is None) == fits_under(bp.max_usage(q0, q1), bw, capacity)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_op_stream_agreement(seed):
    rng = np.random.default_rng(seed)
    bp = BreakpointProfile()
    vec = VectorProfile()
    live = []  # (t0, t1, bw) previously added, candidates for release

    for step in range(300):
        op = rng.random()
        if op < 0.45 or not live:
            # Allocate: positive bandwidth over a random window.
            t0, t1 = _random_interval(rng)
            bw = float(rng.uniform(0.5, 100.0))
            bp.add(t0, t1, bw)
            vec.add(t0, t1, bw)
            live.append((t0, t1, bw))
        elif op < 0.75:
            # Release a previous allocation exactly (negative delta).
            t0, t1, bw = live.pop(int(rng.integers(len(live))))
            bp.add(t0, t1, -bw)
            vec.add(t0, t1, -bw)
        else:
            # Degradation-style overlay: a reduction that is not tied to
            # any allocation (capacity dips can push usage negative in
            # the overlay profile; the kernel must not care).
            t0, t1 = _random_interval(rng)
            dip = -float(rng.uniform(0.5, 50.0))
            bp.add(t0, t1, dip)
            vec.add(t0, t1, dip)

        if step % 10 == 0:
            _assert_profiles_agree(bp, vec, rng)

    # The classes are designed bit-identical, not just tolerance-close:
    # the final segment structures must match exactly.
    assert list(bp.segments()) == list(vec.segments())
    assert bp.num_segments == vec.num_segments
    assert list(bp.breakpoints()) == list(vec.breakpoints())


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_add_batch_stream_agreement(seed):
    rng = np.random.default_rng(seed)
    bp = BreakpointProfile()
    vec = VectorProfile()
    for _ in range(20):
        batch = []
        for _ in range(int(rng.integers(1, 12))):
            t0, t1 = _random_interval(rng)
            batch.append((t0, t1, float(rng.uniform(-20.0, 60.0))))
        bp.add_batch(batch)
        vec.add_batch(batch)
        _assert_profiles_agree(bp, vec, rng)
    assert list(bp.segments()) == list(vec.segments())


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_copies_stay_equivalent(seed):
    rng = np.random.default_rng(seed)
    bp = BreakpointProfile()
    vec = VectorProfile()
    for _ in range(50):
        t0, t1 = _random_interval(rng)
        bw = float(rng.uniform(0.5, 80.0))
        bp.add(t0, t1, bw)
        vec.add(t0, t1, bw)
    bp2, vec2 = bp.copy(), vec.copy()
    t0, t1 = _random_interval(rng)
    bp2.add(t0, t1, 5.0)
    vec2.add(t0, t1, 5.0)
    assert list(bp2.segments()) == list(vec2.segments())
    # Originals untouched and still agreeing.
    assert list(bp.segments()) == list(vec.segments())


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
class TestErrorParity:
    def test_zero_length_interval(self, kernel):
        profile = kernel()
        with pytest.raises(ValueError):
            profile.add(3.0, 3.0, 1.0)

    def test_reversed_interval(self, kernel):
        profile = kernel()
        with pytest.raises(ValueError):
            profile.add(7.0, 3.0, 1.0)

    def test_reversed_queries(self, kernel):
        profile = kernel()
        profile.add(0.0, 10.0, 1.0)
        for method in (profile.max_usage, profile.min_usage, profile.integral):
            with pytest.raises(ValueError):
                method(8.0, 2.0)
            with pytest.raises(ValueError):
                method(4.0, 4.0)
        with pytest.raises(ValueError):
            profile.blocker(8.0, 2.0, 1.0, 10.0)

    def test_mutation_failure_leaves_profile_usable(self, kernel):
        profile = kernel()
        profile.add(0.0, 10.0, 2.0)
        with pytest.raises(ValueError):
            profile.add(5.0, 5.0, 1.0)
        assert profile.max_usage(0.0, 10.0) == 2.0
        assert profile.num_segments == 3
