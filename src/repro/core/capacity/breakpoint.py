"""The production capacity profile: breakpoint lists on plain Python lists.

Moved verbatim from the former ``repro.core.timeline.BandwidthTimeline``
(only the internals were renamed to the kernel's canonical
``_breakpoints`` / ``_values``), so every decision made through it is
bit-identical to the pre-kernel code.  O(log n + k) interval updates and
queries (n breakpoints, k touched segments), no cache to rebuild after a
mutation except the all-time peak: on the traffic the service sees — a
few hundred segments per port and a mutation every few dozen queries — it
beats the cached numpy implementation on every ``benchmarks/stack``
workload (``docs/CAPACITY.md``), so it is the only class
:func:`~repro.core.capacity.make_profile` builds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from operator import eq
from typing import TYPE_CHECKING

from .interface import CAPACITY_SLACK, CapacityProfile, check_runs

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BreakpointProfile"]


class BreakpointProfile(CapacityProfile):
    """Breakpoint-list :class:`~repro.core.capacity.interface.CapacityProfile`."""

    __slots__ = ("_breakpoints", "_values", "_peak", "writes")

    def __init__(self) -> None:
        # _values[k] applies on [_breakpoints[k], _breakpoints[k+1]); the
        # last segment extends to +inf.  The leading -inf sentinel keeps
        # indexing simple.
        self._breakpoints: list[float] = [-math.inf]
        self._values: list[float] = [0.0]
        # Cached global_max; kept exact across positive adds, None after
        # a release.
        self._peak: float | None = 0.0
        self.writes = 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t``."""
        return bisect_right(self._breakpoints, t) - 1

    def _range_indices(self, t0: float, t1: float) -> tuple[int, int]:
        """First and last index of the segments touching ``[t0, t1)``."""
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        points = self._breakpoints
        i0 = bisect_right(points, t0) - 1
        i1 = bisect_right(points, t1, i0) - 1
        if points[i1] == t1:  # half-open: an exactly-aligned final segment is not touched
            i1 -= 1
        return i0, i1

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal-valued adjacent segments in index range [lo, hi]."""
        points, values = self._breakpoints, self._values
        lo = max(lo, 1)
        hi = min(hi, len(points) - 1)
        if not any(map(eq, values[lo - 1 : hi], values[lo : hi + 1])):
            return
        # Walk backwards so deletions do not disturb earlier indices.
        for k in range(hi, lo - 1, -1):
            if k < len(points) and values[k] == values[k - 1]:
                del points[k]
                del values[k]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, t0: float, t1: float, delta: float) -> None:
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        if delta == 0.0:
            return
        self.writes += 1
        points = self._breakpoints
        values = self._values
        i0 = bisect_right(points, t0) - 1
        i1 = bisect_right(points, t1, i0) - 1
        # Insert the missing breakpoints, add, then merge what became equal.
        if points[i0] != t0:  # only an exact hit reuses the breakpoint
            i0 += 1
            i1 += 1  # t1 > t0: its segment is at or after the split one
            points.insert(i0, t0)
            values.insert(i0, values[i0 - 1])
        if points[i1] != t1:
            i1 += 1
            points.insert(i1, t1)
            values.insert(i1, values[i1 - 1])
        touched = [v + delta for v in values[i0:i1]]
        values[i0:i1] = touched
        if delta > 0.0 and self._peak is not None:
            # Every untouched value is still <= the old peak and every
            # touched one only grew: the new peak is exact, not a bound.
            self._peak = max(self._peak, max(touched))
        else:
            self._peak = None
        # No two neighbours were equal: a merge needs a touched value.
        merged = values[i0 - 1] == touched[0] or touched[-1] == values[i1]
        if merged or any(map(eq, touched, touched[1:])):
            self._coalesce(i0 - 1, i1 + 1)

    def clear(self) -> None:
        self.writes += 1
        self._breakpoints = [-math.inf]
        self._values = [0.0]
        self._peak = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def usage_at(self, t: float) -> float:
        return self._values[self._segment_index(t)]

    def max_usage(self, t0: float, t1: float) -> float:
        i0, i1 = self._range_indices(t0, t1)
        return max(self._values[i0 : i1 + 1])

    def min_usage(self, t0: float, t1: float) -> float:
        i0, i1 = self._range_indices(t0, t1)
        return min(self._values[i0 : i1 + 1])

    def segments(
        self, t0: float | None = None, t1: float | None = None
    ) -> Iterator[tuple[float, float, float]]:
        n = len(self._breakpoints)
        for k in range(n):
            seg_start = self._breakpoints[k]
            seg_end = self._breakpoints[k + 1] if k + 1 < n else math.inf
            if t0 is not None:
                seg_start = max(seg_start, t0)
            if t1 is not None:
                seg_end = min(seg_end, t1)
            if seg_start >= seg_end:
                continue
            if math.isinf(seg_start) or math.isinf(seg_end):
                if self._values[k] == 0.0:
                    continue
            yield (seg_start, seg_end, self._values[k])

    def breakpoints(self) -> np.ndarray:
        import numpy as np

        return np.array(self._breakpoints[1:], dtype=np.float64)

    def breakpoints_between(self, lo: float, hi: float) -> list[float]:
        points = self._breakpoints
        # bisect_right(points, lo) >= 1: the -inf sentinel is never returned.
        return points[bisect_right(points, lo) : bisect_right(points, hi)]

    def breakpoints_in(self, lo: float, hi: float) -> tuple[list[float], int, int]:
        points = self._breakpoints
        return points, bisect_right(points, lo), bisect_right(points, hi)

    def blocker(
        self, t0: float, t1: float, bw: float, capacity: float
    ) -> tuple[float, float] | None:
        i0, i1 = self._range_indices(t0, t1)
        points = self._breakpoints
        values = self._values
        limit = capacity + capacity * CAPACITY_SLACK  # fits_under's two operations, once
        if max(values[i0 : i1 + 1]) + bw <= limit:
            return None
        k = i1
        while values[k] + bw <= limit:
            k -= 1
        return points[k], (points[k + 1] if k + 1 < len(points) else math.inf)

    @property
    def num_segments(self) -> int:
        return len(self._breakpoints)

    def global_max(self) -> float:
        if self._peak is None:
            self._peak = max(self._values)
        return self._peak

    def is_zero(self, tol: float = 1e-9) -> bool:
        return all(abs(u) <= tol for u in self._values)

    # ------------------------------------------------------------------
    def copy(self) -> BreakpointProfile:
        clone = BreakpointProfile()
        clone._breakpoints = list(self._breakpoints)
        clone._values = list(self._values)
        clone._peak = self._peak
        return clone

    def runs(self) -> tuple[list[float], list[float]]:
        return self._breakpoints[1:], list(self._values)

    def load_runs(self, points: list[float], values: list[float]) -> None:
        check_runs(points, values)
        self.writes += 1
        self._breakpoints = [-math.inf, *points]
        self._values = list(values)
        self._peak = None
