"""The :class:`CapacityProfile` contract — Eq. 1's arithmetic, owned here.

Every admission decision in the reproduction reduces to range queries over
per-port bandwidth profiles: *how much bandwidth is already committed on a
port over a time interval?*  A :class:`CapacityProfile` is a
piecewise-constant function ``usage(t)`` over the real line supporting

- **range add** (:meth:`~CapacityProfile.add`, :meth:`~CapacityProfile.add_batch`),
- **probe-and-add** (:meth:`~CapacityProfile.book`),
- **range max / min** (:meth:`~CapacityProfile.max_usage`,
  :meth:`~CapacityProfile.min_usage`),
- **point query** (:meth:`~CapacityProfile.usage_at`),
- **integral** (:meth:`~CapacityProfile.integral`),
- **segment iteration** (:meth:`~CapacityProfile.segments`),
- **the search's two reads** (:meth:`~CapacityProfile.breakpoints_between`,
  :meth:`~CapacityProfile.blocker`),
- **copy / snapshot** (:meth:`~CapacityProfile.copy`).

One production class implements it, the breakpoint-list
:class:`~repro.core.capacity.breakpoint.BreakpointProfile`; every profile
the library builds comes from :func:`~repro.core.capacity.make_profile`
and is one.  :class:`~repro.core.capacity.vector.VectorProfile` is an
independent numpy implementation of the same contract, kept as the
reference the equivalence fuzz (``tests/test_capacity_equivalence.py``)
compares the production class against, bit for bit.

No module outside ``repro.core.capacity`` may touch a profile's breakpoint
internals (``_breakpoints`` / ``_values``) or construct either class
directly — gridlint rule GL009 enforces the boundary.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["CAPACITY_SLACK", "CapacityProfile"]

#: Relative numerical slack applied to capacity comparisons.  Bandwidth
#: values are sums of floats; a strict ``<=`` would reject exact fits that
#: differ by one ulp.  This is the kernel's canonical constant — every
#: layer (ledger, brokers, schedulers) imports it from here.
CAPACITY_SLACK: float = 1e-9


class CapacityProfile:
    """A piecewise-constant function ``usage(t)`` over the real line.

    The function starts identically zero.  :meth:`add` adds a constant over
    a half-open interval ``[t0, t1)``; negative deltas release bandwidth.
    Adjacent segments with equal values are coalesced to keep the profile
    compact over long simulations.

    This class is the abstract contract: it holds no state and is not
    instantiable.  Subclasses must implement every method below.
    """

    __slots__ = ()

    def __new__(cls) -> CapacityProfile:
        if cls is CapacityProfile:
            raise TypeError(
                "CapacityProfile is the abstract interface; build profiles via make_profile()"
            )
        return object.__new__(cls)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, t0: float, t1: float, delta: float) -> None:
        """Add ``delta`` to the usage over ``[t0, t1)``.

        ``delta`` may be negative (releasing a previous allocation).  Empty
        or inverted intervals are rejected with :class:`ValueError`.
        """
        raise NotImplementedError

    def add_batch(self, intervals: Iterable[tuple[float, float, float]]) -> None:
        """Apply many ``(t0, t1, delta)`` range adds in one call.

        Semantically identical to calling :meth:`add` per interval, in
        order; subclasses may batch the breakpoint insertion.  The default
        implementation is the sequential loop.
        """
        for t0, t1, delta in intervals:
            self.add(t0, t1, delta)

    def book(self, t0: float, t1: float, delta: float, capacity: float) -> bool:
        """Probe and commit in one call: :meth:`add` ``delta`` over
        ``[t0, t1)`` iff :meth:`blocker` finds nothing under ``capacity``.
        Returns whether it did."""
        if self.blocker(t0, t1, delta, capacity) is not None:
            return False
        self.add(t0, t1, delta)
        return True

    def clear(self) -> None:
        """Reset to the identically-zero function."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def usage_at(self, t: float) -> float:
        """Usage at time ``t`` (right-continuous: the value on ``[t, ...)``)."""
        raise NotImplementedError

    def max_usage(self, t0: float, t1: float) -> float:
        """Maximum usage over the interval ``[t0, t1)``."""
        raise NotImplementedError

    def min_usage(self, t0: float, t1: float) -> float:
        """Minimum usage over the interval ``[t0, t1)``."""
        raise NotImplementedError

    def integral(self, t0: float, t1: float) -> float:
        """``∫ usage(t) dt`` over ``[t0, t1)`` (MB when usage is MB/s).

        Summed segment-by-segment left to right so the production class and
        its oracle produce bit-identical totals.
        """
        if not (t1 > t0):
            raise ValueError(f"empty interval [{t0}, {t1})")
        total = 0.0
        for seg_start, seg_end, value in self.segments(t0, t1):
            total += value * (seg_end - seg_start)
        return total

    def segments(
        self, t0: float | None = None, t1: float | None = None
    ) -> Iterator[tuple[float, float, float]]:
        """Iterate ``(start, end, usage)`` segments clipped to ``[t0, t1)``.

        Without bounds, yields all finite segments where usage is non-zero
        or interior (the infinite zero tails are skipped).
        """
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        """The finite breakpoints as a numpy array."""
        raise NotImplementedError

    def breakpoints_between(self, lo: float, hi: float) -> list[float]:
        """The finite breakpoints ``t`` with ``lo < t <= hi``, ascending.

        What a book-ahead search needs of a port's history: the instants
        inside one request's start range, not the whole timeline.
        """
        return [float(t) for t in self.breakpoints() if lo < t <= hi]

    def blocker(
        self, t0: float, t1: float, bw: float, capacity: float
    ) -> tuple[float, float] | None:
        """Why ``bw`` does not fit under ``capacity`` over ``[t0, t1)``.

        ``None`` when ``fits_under(max_usage(t0, t1), bw, capacity)``.
        Otherwise the bounds ``(a, b)`` of the *last* stored segment
        touching ``[t0, t1)`` whose usage alone already fails
        :func:`~repro.core.capacity.checks.fits_under` — unclipped, so
        ``a`` may lie before ``t0`` (or be ``-inf``) and ``b`` beyond
        ``t1`` (or be ``+inf``).  Any rate ``>= bw`` over any interval
        overlapping ``[a, b)`` fails the same test for as long as the
        profile is not mutated; ``docs/CAPACITY.md`` ("How the search
        skips") has the argument.
        """
        raise NotImplementedError

    @property
    def num_segments(self) -> int:
        """Current number of stored segments (profile compactness metric)."""
        raise NotImplementedError

    def global_max(self) -> float:
        """Maximum usage over all time.

        Subclasses cache this — it is the all-time peak behind the
        gateway's headroom fast path, probed twice per admission.  The
        production class keeps the cache exact across bookings (a
        positive range add can only raise the peak to the new maximum of
        the touched range) and drops it on releases.
        """
        raise NotImplementedError

    def is_zero(self, tol: float = 1e-9) -> bool:
        """True when no bandwidth is committed anywhere.

        ``tol`` absorbs float residue left by add/release cycles of values
        that are not exactly representable.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def copy(self) -> CapacityProfile:
        """An independent copy of this profile (same class)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        finite = [
            (seg_start, value)
            for seg_start, _, value in self.segments()
            if math.isfinite(seg_start)
        ]
        return f"{type(self).__name__}({finite!r})"
