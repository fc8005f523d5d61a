"""Tests for BreakpointProfile, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BreakpointProfile


class TestBasics:
    def test_starts_zero(self):
        tl = BreakpointProfile()
        assert tl.usage_at(0.0) == 0.0
        assert tl.usage_at(-1e9) == 0.0
        assert tl.is_zero()

    def test_single_add(self):
        tl = BreakpointProfile()
        tl.add(10.0, 20.0, 5.0)
        assert tl.usage_at(9.999) == 0.0
        assert tl.usage_at(10.0) == 5.0
        assert tl.usage_at(15.0) == 5.0
        assert tl.usage_at(20.0) == 0.0  # half-open interval

    def test_overlapping_adds(self):
        tl = BreakpointProfile()
        tl.add(0.0, 10.0, 3.0)
        tl.add(5.0, 15.0, 4.0)
        assert tl.usage_at(2.0) == 3.0
        assert tl.usage_at(7.0) == 7.0
        assert tl.usage_at(12.0) == 4.0

    def test_release_restores(self):
        tl = BreakpointProfile()
        tl.add(0.0, 10.0, 3.0)
        tl.add(0.0, 10.0, -3.0)
        assert tl.is_zero()

    def test_empty_interval_rejected(self):
        tl = BreakpointProfile()
        with pytest.raises(ValueError):
            tl.add(5.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            tl.add(5.0, 4.0, 1.0)

    def test_zero_delta_noop(self):
        tl = BreakpointProfile()
        tl.add(0.0, 10.0, 0.0)
        assert tl.num_segments == 1

    def test_clear(self):
        tl = BreakpointProfile()
        tl.add(0.0, 5.0, 2.0)
        tl.clear()
        assert tl.is_zero()


class TestQueries:
    def _tl(self):
        tl = BreakpointProfile()
        tl.add(0.0, 10.0, 2.0)
        tl.add(5.0, 20.0, 3.0)
        return tl  # usage: [0,5)=2, [5,10)=5, [10,20)=3

    def test_max_usage(self):
        tl = self._tl()
        assert tl.max_usage(0.0, 20.0) == 5.0
        assert tl.max_usage(0.0, 5.0) == 2.0
        assert tl.max_usage(10.0, 20.0) == 3.0
        # interval ending exactly at a breakpoint must not see beyond it
        assert tl.max_usage(0.0, 5.0) == 2.0
        assert tl.max_usage(20.0, 30.0) == 0.0

    def test_min_usage(self):
        tl = self._tl()
        assert tl.min_usage(0.0, 20.0) == 2.0
        assert tl.min_usage(5.0, 10.0) == 5.0
        assert tl.min_usage(15.0, 25.0) == 0.0

    def test_integral(self):
        tl = self._tl()
        assert tl.integral(0.0, 20.0) == pytest.approx(2 * 5 + 5 * 5 + 3 * 10)
        assert tl.integral(4.0, 6.0) == pytest.approx(2.0 + 5.0)

    def test_segments_clipped(self):
        tl = self._tl()
        segs = list(tl.segments(3.0, 12.0))
        assert segs == [(3.0, 5.0, 2.0), (5.0, 10.0, 5.0), (10.0, 12.0, 3.0)]

    def test_breakpoints(self):
        tl = self._tl()
        assert list(tl.breakpoints()) == [0.0, 5.0, 10.0, 20.0]

    def test_global_max(self):
        assert self._tl().global_max() == 5.0

    def test_copy_independent(self):
        tl = self._tl()
        clone = tl.copy()
        clone.add(0.0, 1.0, 100.0)
        assert tl.usage_at(0.5) == 2.0
        assert clone.usage_at(0.5) == 102.0


class TestCoalescing:
    def test_adjacent_equal_segments_merge(self):
        tl = BreakpointProfile()
        tl.add(0.0, 10.0, 2.0)
        tl.add(10.0, 20.0, 2.0)
        # one finite segment [0, 20) at 2.0 -> breakpoints {0, 20}
        assert list(tl.breakpoints()) == [0.0, 20.0]

    def test_release_merges_back(self):
        tl = BreakpointProfile()
        tl.add(0.0, 30.0, 5.0)
        tl.add(10.0, 20.0, 1.0)
        tl.add(10.0, 20.0, -1.0)
        assert list(tl.breakpoints()) == [0.0, 30.0]

    def test_segment_count_stays_bounded(self):
        tl = BreakpointProfile()
        for i in range(100):
            tl.add(float(i), float(i + 1), 1.0)
        # all segments equal -> coalesced into one
        assert tl.num_segments <= 3


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

interval_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.001, max_value=500.0, allow_nan=False),
    st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(interval_strategy, min_size=1, max_size=30))
def test_timeline_matches_bruteforce(intervals):
    """Timeline agrees with a dense numpy reference on usage and integral."""
    tl = BreakpointProfile()
    for start, length, bw in intervals:
        tl.add(start, start + length, bw)

    edges = sorted({s for s, l, _ in intervals} | {s + l for s, l, _ in intervals})
    probes = np.array(edges)
    mids = (probes[:-1] + probes[1:]) / 2 if len(probes) > 1 else np.array([])
    for t in list(probes) + list(mids):
        expected = sum(bw for s, l, bw in intervals if s <= t < s + l)
        assert tl.usage_at(float(t)) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    lo, hi = edges[0], edges[-1]
    if hi > lo:
        expected_integral = sum(
            bw * (min(hi, s + l) - max(lo, s)) for s, l, bw in intervals if s + l > lo and s < hi
        )
        assert tl.integral(lo, hi) == pytest.approx(expected_integral, rel=1e-9, abs=1e-6)
        expected_max = max(
            sum(bw for s, l, bw in intervals if s <= t < s + l) for t in list(probes[:-1]) + list(mids)
        )
        assert tl.max_usage(lo, hi) == pytest.approx(expected_max, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(interval_strategy, min_size=1, max_size=20))
def test_add_then_release_returns_to_zero(intervals):
    """Releasing every allocation leaves the identically-zero function."""
    tl = BreakpointProfile()
    for start, length, bw in intervals:
        tl.add(start, start + length, bw)
    for start, length, bw in intervals:
        tl.add(start, start + length, -bw)
    for t in {s for s, _, _ in intervals} | {s + l for s, l, _ in intervals}:
        assert tl.usage_at(t) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(interval_strategy, min_size=1, max_size=25))
def test_coalescing_never_changes_semantics(intervals):
    """num_segments stays small when all values collapse to equal levels."""
    tl = BreakpointProfile()
    for start, length, _ in intervals:
        tl.add(start, start + length, 1.0)
        tl.add(start, start + length, -1.0)
    assert tl.num_segments == 1
