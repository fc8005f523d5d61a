"""The reference oracle: numpy breakpoint arrays with cached range queries.

An independent implementation of the :class:`CapacityProfile` contract
that ``tests/test_capacity_equivalence.py`` compares the production
:class:`~repro.core.capacity.breakpoint.BreakpointProfile` against;
nothing under ``src/`` imports or constructs it (GL009).  Same
piecewise-constant semantics, with the hot operations pushed into C:

- breakpoints and values live in parallel ``float64`` arrays; point and
  range lookups are ``np.searchsorted`` (identical to ``bisect_right``)
  plus a contiguous slice reduction;
- :meth:`VectorProfile.add` applies a range add as one vectorized slice
  ``+=`` and coalesces equal neighbours with one boolean mask;
- :meth:`VectorProfile.add_batch` inserts every new breakpoint in a single
  ``np.insert`` before applying the deltas in order (bit-identical to the
  sequential adds — splitting a segment first and adding later commutes);
- a lazily-computed **suffix max** (``max(values[k:])`` for every ``k``) is
  cached between mutations, answering the open-ended range-max probes an
  ``earliest_fit``-heavy admission sweep hammers — "does this rate fit
  from σ to beyond the last committed booking?" — in O(log n);
- a lazily-built **sparse table** (doubling prefix-max levels,
  ``table[k][i] = max(values[i : i + 2**k])``) is cached alongside it,
  answering *bounded* range-max queries in O(1) after the O(log n)
  bisections.  An earliest-fit search issues two such queries per
  candidate start against an unchanged profile, so the O(n log n) build
  amortises across the sweep.

Arithmetic is element-wise IEEE-identical to the breakpoint class (same
additions in the same per-element order, same exact-equality coalescing),
so the two classes agree decision-for-decision, not merely within
tolerance.  The caches pay off only on long read-only sweeps: every
mutation drops them, which is why this class lost to the breakpoint
lists on every ``benchmarks/stack`` workload (``docs/CAPACITY.md``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from .checks import fits_under
from .interface import CapacityProfile, check_runs

__all__ = ["VectorProfile"]


class VectorProfile(CapacityProfile):
    """Numpy-backed :class:`~repro.core.capacity.interface.CapacityProfile`."""

    __slots__ = ("_breakpoints", "_values", "_peak", "_suffix", "_rmq", "writes")

    def __init__(self) -> None:
        # _values[k] applies on [_breakpoints[k], _breakpoints[k+1]); the
        # last segment extends to +inf.  The leading -inf sentinel keeps
        # indexing simple and searchsorted O(log n).
        self._breakpoints: np.ndarray = np.array([-math.inf], dtype=np.float64)
        self._values: np.ndarray = np.array([0.0], dtype=np.float64)
        # Caches, dropped on any mutation.
        self._peak: float | None = 0.0
        self._suffix: np.ndarray | None = None
        self._rmq: list[np.ndarray] | None = None
        self.writes = 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t``."""
        return int(np.searchsorted(self._breakpoints, t, side="right")) - 1

    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at ``t`` (if absent) and return its index."""
        idx = self._segment_index(t)
        if self._breakpoints[idx] == t:  # gridlint: disable=GL003 -- breakpoint identity: t was bisected into _breakpoints, only an exact hit reuses the entry
            return idx
        self._breakpoints = np.insert(self._breakpoints, idx + 1, t)
        self._values = np.insert(self._values, idx + 1, self._values[idx])
        return idx + 1

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal-valued adjacent segments in index range [lo, hi]."""
        lo = max(lo, 1)
        hi = min(hi, len(self._breakpoints) - 1)
        if hi < lo:
            return
        merge = self._values[lo : hi + 1] == self._values[lo - 1 : hi]
        if not merge.any():
            return
        keep = np.ones(len(self._breakpoints), dtype=bool)
        keep[lo : hi + 1] = ~merge
        self._breakpoints = self._breakpoints[keep]
        self._values = self._values[keep]

    def _invalidate(self) -> None:
        self.writes += 1
        self._peak = None
        self._suffix = None
        self._rmq = None

    def _suffix_max(self) -> np.ndarray:
        """``suffix[k] = max(values[k:])``, cached until the next mutation."""
        if self._suffix is None:
            self._suffix = np.maximum.accumulate(self._values[::-1])[::-1]
        return self._suffix

    def _sparse_table(self) -> list[np.ndarray]:
        """Doubling range-max levels, cached until the next mutation.

        ``levels[k][i] == max(values[i : i + 2**k])``; any inclusive index
        range ``[i0, i1]`` is the max of two overlapping power-of-two
        blocks.  Max is idempotent, so the overlap is harmless and the
        result is bit-identical to a direct slice reduction.
        """
        if self._rmq is None:
            n = len(self._values)
            levels = [self._values]
            width = 1
            while width * 2 <= n:
                prev = levels[-1]
                levels.append(np.maximum(prev[: n - width * 2 + 1], prev[width : n - width + 1]))
                width *= 2
            self._rmq = levels
        return self._rmq

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, t0: float, t1: float, delta: float) -> None:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        if delta == 0.0:
            return
        i0 = self._ensure_breakpoint(t0)
        i1 = self._ensure_breakpoint(t1)
        self._values[i0:i1] += delta
        self._coalesce(i0 - 1, i1 + 1)
        self._invalidate()

    def add_batch(self, intervals: Iterable[tuple[float, float, float]]) -> None:
        batch = [(t0, t1, delta) for t0, t1, delta in intervals]
        for t0, t1, _ in batch:
            if not (t1 > t0):
                raise ValueError(f"empty interval [{t0}, {t1})")
        batch = [iv for iv in batch if iv[2] != 0.0]
        if not batch:
            return
        # One pass of breakpoint insertion for the whole batch.  Splitting a
        # segment copies its value, so pre-splitting before the deltas land
        # yields the same per-element additions as interleaved inserts.
        edges = sorted({t for t0, t1, _ in batch for t in (t0, t1)})
        donors = np.searchsorted(self._breakpoints, edges, side="right") - 1
        new_mask = self._breakpoints[donors] != np.asarray(edges)
        if new_mask.any():
            new_pts = np.asarray(edges, dtype=np.float64)[new_mask]
            donor_idx = donors[new_mask]
            self._breakpoints = np.insert(self._breakpoints, donor_idx + 1, new_pts)
            self._values = np.insert(self._values, donor_idx + 1, self._values[donor_idx])
        for t0, t1, delta in batch:
            i0 = self._segment_index(t0)
            i1 = self._segment_index(t1)
            self._values[i0:i1] += delta
        # Adjacent-equal pairs can only appear where the batch touched, but
        # after N interleaved adds that is potentially everywhere: coalesce
        # the whole array (the no-adjacent-equals invariant held before).
        self._coalesce(1, len(self._breakpoints) - 1)
        self._invalidate()

    def clear(self) -> None:
        self.writes += 1
        self._breakpoints = np.array([-math.inf], dtype=np.float64)
        self._values = np.array([0.0], dtype=np.float64)
        self._peak = 0.0
        self._suffix = None
        self._rmq = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def usage_at(self, t: float) -> float:
        return float(self._values[self._segment_index(t)])

    def _range_indices(self, t0: float, t1: float) -> tuple[int, int]:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        i0 = self._segment_index(t0)
        i1 = self._segment_index(t1)
        if self._breakpoints[i1] == t1:  # gridlint: disable=GL003 -- breakpoint identity: half-open [t0, t1) excludes an exactly-aligned final segment
            i1 -= 1
        return i0, i1

    def max_usage(self, t0: float, t1: float) -> float:
        i0, i1 = self._range_indices(t0, t1)
        if i1 == len(self._values) - 1:
            # Open-ended to the right: the cached suffix max answers without
            # touching the values array (the earliest_fit-probe fast path).
            return float(self._suffix_max()[i0])
        level = (i1 - i0 + 1).bit_length() - 1
        table = self._sparse_table()[level]
        left, right = table[i0], table[i1 - (1 << level) + 1]
        return float(left if left >= right else right)

    def min_usage(self, t0: float, t1: float) -> float:
        i0, i1 = self._range_indices(t0, t1)
        return float(self._values[i0 : i1 + 1].min())

    def segments(
        self, t0: float | None = None, t1: float | None = None
    ) -> Iterator[tuple[float, float, float]]:
        n = len(self._breakpoints)
        for k in range(n):
            seg_start = float(self._breakpoints[k])
            seg_end = float(self._breakpoints[k + 1]) if k + 1 < n else math.inf
            if t0 is not None:
                seg_start = max(seg_start, t0)
            if t1 is not None:
                seg_end = min(seg_end, t1)
            if seg_start >= seg_end:
                continue
            value = float(self._values[k])
            if math.isinf(seg_start) or math.isinf(seg_end):
                if value == 0.0:
                    continue
            yield (seg_start, seg_end, value)

    def breakpoints(self) -> np.ndarray:
        pts = self._breakpoints
        return pts[np.isfinite(pts)].copy()

    def blocker(
        self, t0: float, t1: float, bw: float, capacity: float
    ) -> tuple[float, float] | None:
        i0, i1 = self._range_indices(t0, t1)
        # Element-wise over the window: same IEEE additions as the scalar form.
        failing = np.flatnonzero(~fits_under(self._values[i0 : i1 + 1], bw, capacity))
        if failing.size == 0:
            return None
        k = i0 + int(failing[-1])
        end = float(self._breakpoints[k + 1]) if k + 1 < len(self._breakpoints) else math.inf
        return float(self._breakpoints[k]), end

    @property
    def num_segments(self) -> int:
        return len(self._breakpoints)

    def global_max(self) -> float:
        if self._peak is None:
            self._peak = float(self._values.max())
        return self._peak

    def is_zero(self, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self._values) <= tol))

    # ------------------------------------------------------------------
    def copy(self) -> VectorProfile:
        clone = VectorProfile()
        clone._breakpoints = self._breakpoints.copy()
        clone._values = self._values.copy()
        clone._peak = self._peak
        clone._suffix = None
        clone._rmq = None
        return clone

    def runs(self) -> tuple[list[float], list[float]]:
        return self._breakpoints[1:].tolist(), self._values.tolist()

    def load_runs(self, points: list[float], values: list[float]) -> None:
        check_runs(points, values)
        self._breakpoints = np.array([-math.inf, *points], dtype=np.float64)
        self._values = np.array(values, dtype=np.float64)
        self._invalidate()
