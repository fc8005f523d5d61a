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

import numpy as np

from .checks import fits_under
from .interface import CapacityProfile

__all__ = ["BreakpointProfile"]


class BreakpointProfile(CapacityProfile):
    """Breakpoint-list :class:`~repro.core.capacity.interface.CapacityProfile`."""

    __slots__ = ("_breakpoints", "_values", "_peak")

    def __init__(self) -> None:
        # _values[k] applies on [_breakpoints[k], _breakpoints[k+1]); the
        # last segment extends to +inf.  The leading -inf sentinel keeps
        # indexing simple.
        self._breakpoints: list[float] = [-math.inf]
        self._values: list[float] = [0.0]
        # Cached global_max; kept exact across positive adds, None after
        # a release.
        self._peak: float | None = 0.0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _segment_index(self, t: float) -> int:
        """Index of the segment containing time ``t``."""
        return bisect_right(self._breakpoints, t) - 1

    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at ``t`` (if absent) and return its index."""
        idx = self._segment_index(t)
        if self._breakpoints[idx] == t:  # gridlint: disable=GL003 -- breakpoint identity: t was bisected into _breakpoints, only an exact hit reuses the entry
            return idx
        self._breakpoints.insert(idx + 1, t)
        self._values.insert(idx + 1, self._values[idx])
        return idx + 1

    def _range_indices(self, t0: float, t1: float) -> tuple[int, int]:
        """First and last index of the segments touching ``[t0, t1)``."""
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        i0 = self._segment_index(t0)
        i1 = self._segment_index(t1)
        if self._breakpoints[i1] == t1:  # gridlint: disable=GL003 -- breakpoint identity: half-open [t0, t1) excludes an exactly-aligned final segment
            i1 -= 1
        return i0, i1

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal-valued adjacent segments in index range [lo, hi]."""
        lo = max(lo, 1)
        hi = min(hi, len(self._breakpoints) - 1)
        # Walk backwards so deletions do not disturb earlier indices.
        for k in range(hi, lo - 1, -1):
            if k < len(self._breakpoints) and self._values[k] == self._values[k - 1]:
                del self._breakpoints[k]
                del self._values[k]

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
        values = self._values
        for k in range(i0, i1):
            values[k] += delta
        if delta > 0.0 and self._peak is not None:
            # Every untouched value is still <= the old peak and every
            # touched one only grew: the new peak is exact, not a bound.
            self._peak = max(self._peak, max(values[i0:i1]))
        else:
            self._peak = None
        self._coalesce(i0 - 1, i1 + 1)

    def clear(self) -> None:
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
        return np.array(self._breakpoints[1:], dtype=np.float64)

    def breakpoints_between(self, lo: float, hi: float) -> list[float]:
        points = self._breakpoints
        # bisect_right(points, lo) >= 1: the -inf sentinel is never returned.
        return points[bisect_right(points, lo) : bisect_right(points, hi)]

    def blocker(
        self, t0: float, t1: float, bw: float, capacity: float
    ) -> tuple[float, float] | None:
        i0, i1 = self._range_indices(t0, t1)
        points = self._breakpoints
        values = self._values
        if fits_under(max(values[i0 : i1 + 1]), bw, capacity):
            return None
        k = i1
        while fits_under(values[k], bw, capacity):
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
