"""Capacity-checked allocation ledger for a whole platform.

:class:`PortLedger` keeps one capacity-kernel profile
(:class:`~repro.core.capacity.CapacityProfile`) per ingress and per egress
point and enforces the resource-sharing constraints of Eq. 1: at every
instant, the bandwidth committed on a port never exceeds its capacity.
All breakpoint arithmetic lives in :mod:`repro.core.capacity`; the ledger
only issues interface-level range queries and updates.

Schedulers use the ledger in two modes:

- *query* (``fits``): would a constant allocation of ``bw`` on the pair
  ``(ingress, egress)`` over ``[t0, t1)`` stay within both capacities?
- *mutate* (``allocate`` / ``release``): commit or return bandwidth.

Capacities may be **time-varying**: :meth:`PortLedger.degrade` registers a
capacity reduction over an interval (a maintenance window, a partial link
failure, or a full outage when the reduction equals the port capacity).
Reductions are tracked on separate timelines so committed usage and lost
capacity stay independently inspectable; every query (``fits``,
``headroom``, ``max_overcommit``) accounts for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from .capacity import CAPACITY_SLACK, CapacityProfile, fits_under, make_profile
from .capacity import carried_volume as _kernel_carried_volume
from .errors import CapacityError, ConfigurationError
from .platform import Platform

__all__ = ["PortLedger", "Degradation", "CAPACITY_SLACK"]


@dataclass(frozen=True, slots=True)
class Degradation:
    """A capacity reduction on one port over a finite interval.

    ``amount`` MB/s are unavailable on the port over ``[t0, t1)``; an
    ``amount`` at or above the port capacity models a full outage.
    """

    side: str  # "ingress" | "egress"
    port: int
    t0: float
    t1: float
    amount: float

    def __post_init__(self) -> None:
        if self.side not in ("ingress", "egress"):
            raise ConfigurationError(f"side must be 'ingress' or 'egress', got {self.side!r}")
        if not (self.t1 > self.t0) or not math.isfinite(self.t0) or not math.isfinite(self.t1):
            raise ConfigurationError(f"degradation window [{self.t0}, {self.t1}) must be finite and non-empty")
        if self.amount <= 0:
            raise ConfigurationError(f"degradation amount must be positive, got {self.amount}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {"side": self.side, "port": self.port, "t0": self.t0, "t1": self.t1, "amount": self.amount}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Degradation:
        """Inverse of :meth:`to_dict`."""
        return cls(
            side=str(data["side"]),
            port=int(data["port"]),
            t0=float(data["t0"]),
            t1=float(data["t1"]),
            amount=float(data["amount"]),
        )


class PortLedger:
    """Tracks committed bandwidth on every access point of a platform."""

    __slots__ = ("platform", "_ingress", "_egress", "_ingress_red", "_egress_red")

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._ingress = [make_profile() for _ in range(platform.num_ingress)]
        self._egress = [make_profile() for _ in range(platform.num_egress)]
        # Capacity-reduction profiles, created lazily: most simulations
        # never degrade a port and must not pay for the possibility.
        self._ingress_red: list[CapacityProfile | None] = [None] * platform.num_ingress
        self._egress_red: list[CapacityProfile | None] = [None] * platform.num_egress

    # ------------------------------------------------------------------
    def ingress_timeline(self, i: int) -> CapacityProfile:
        """The usage profile of ingress point ``i`` (live view)."""
        return self._ingress[i]

    def egress_timeline(self, e: int) -> CapacityProfile:
        """The usage profile of egress point ``e`` (live view)."""
        return self._egress[e]

    # ------------------------------------------------------------------
    # Time-varying capacity
    # ------------------------------------------------------------------
    def degrade(self, degradation: Degradation) -> None:
        """Register a capacity reduction (see :class:`Degradation`).

        Degradations are external facts, not allocations: they are applied
        unconditionally and may leave already-committed reservations beyond
        the remaining capacity — callers inspect :meth:`overcommit_on` to
        find and displace them.
        """
        usage, reductions = self._side(degradation.side)
        if not (0 <= degradation.port < len(usage)):
            raise ConfigurationError(
                f"no {degradation.side} port {degradation.port} on this platform"
            )
        red = reductions[degradation.port]
        if red is None:
            red = make_profile()
            reductions[degradation.port] = red
        red.add(degradation.t0, degradation.t1, degradation.amount)

    def _side(
        self, side: str
    ) -> tuple[list[CapacityProfile], list[CapacityProfile | None]]:
        if side == "ingress":
            return self._ingress, self._ingress_red
        if side == "egress":
            return self._egress, self._egress_red
        raise ConfigurationError(f"side must be 'ingress' or 'egress', got {side!r}")

    def _base_capacity(self, side: str, port: int) -> float:
        return self.platform.bin(port) if side == "ingress" else self.platform.bout(port)

    def capacity_at(self, side: str, port: int, t: float) -> float:
        """Effective capacity of a port at time ``t`` (never negative)."""
        _, reductions = self._side(side)
        base = self._base_capacity(side, port)
        red = reductions[port]
        if red is None:
            return base
        return max(0.0, base - red.usage_at(t))

    def free_capacity(self, side: str, port: int, t0: float, t1: float) -> float:
        """Guaranteed free bandwidth on a port over all of ``[t0, t1)``.

        The minimum over the interval of ``capacity(t) - usage(t)``, floored
        at zero; the largest constant rate the port can still carry there.
        """
        usage, reductions = self._side(side)
        base = self._base_capacity(side, port)
        red = reductions[port]
        if red is None:
            return max(0.0, base - usage[port].max_usage(t0, t1))
        free = math.inf
        for seg_start, seg_end, reduction in red.segments(t0, t1):
            effective = max(0.0, base - reduction)
            free = min(free, effective - usage[port].max_usage(seg_start, seg_end))
        return max(0.0, free)

    def overcommit_on(self, side: str, port: int, t0: float, t1: float) -> float:
        """Worst ``usage - capacity`` on one port over ``[t0, t1)``.

        Positive values mean committed reservations exceed the (possibly
        degraded) capacity somewhere in the interval.
        """
        usage, reductions = self._side(side)
        base = self._base_capacity(side, port)
        red = reductions[port]
        if red is None:
            return usage[port].max_usage(t0, t1) - base
        worst = -math.inf
        for seg_start, seg_end, reduction in red.segments(t0, t1):
            effective = max(0.0, base - reduction)
            worst = max(worst, usage[port].max_usage(seg_start, seg_end) - effective)
        return worst

    def degradation_edges(self, side: str, port: int) -> Iterator[float]:
        """Finite instants where a port's effective capacity changes."""
        _, reductions = self._side(side)
        red = reductions[port]
        if red is not None:
            yield from red.breakpoints()

    # ------------------------------------------------------------------
    def fits(self, ingress: int, egress: int, t0: float, t1: float, bw: float) -> bool:
        """True when ``bw`` fits on both ports over all of ``[t0, t1)``."""
        cap_in = self.platform.bin(ingress)
        cap_out = self.platform.bout(egress)
        if self._ingress_red[ingress] is None and self._egress_red[egress] is None:
            # Fast path: constant capacities (the overwhelmingly common case).
            if not fits_under(self._ingress[ingress].max_usage(t0, t1), bw, cap_in):
                return False
            if not fits_under(self._egress[egress].max_usage(t0, t1), bw, cap_out):
                return False
            return True
        slack = max(cap_in, cap_out) * CAPACITY_SLACK
        if self.free_capacity("ingress", ingress, t0, t1) + slack < bw:
            return False
        if self.free_capacity("egress", egress, t0, t1) + slack < bw:
            return False
        return True

    def blocker(
        self, ingress: int, egress: int, t0: float, t1: float, bw: float
    ) -> tuple[float, float] | None:
        """``None`` when :meth:`fits`; else an interval that keeps failing.

        On constant capacities the answer is the kernel's
        (:meth:`~repro.core.capacity.CapacityProfile.blocker`): the
        blocking segment ``[a, b)`` of the ingress port, or else of the
        egress port — the order :meth:`fits` tests them in.  Until the
        ledger is mutated, any rate ``>= bw`` over any interval
        overlapping ``[a, b)`` fails :meth:`fits` too, which is what lets
        :func:`~repro.core.booking.earliest_fit` fail later candidates
        without asking again.  A degraded port answers with the empty
        ``(t0, t0)``: nothing overlaps it, so nothing is learned and every
        candidate is probed as before.
        """
        if self._ingress_red[ingress] is None and self._egress_red[egress] is None:
            blocked = self._ingress[ingress].blocker(t0, t1, bw, self.platform.bin(ingress))
            return blocked or self._egress[egress].blocker(t0, t1, bw, self.platform.bout(egress))
        return None if self.fits(ingress, egress, t0, t1, bw) else (t0, t0)

    def headroom(self, ingress: int, egress: int, t0: float, t1: float) -> float:
        """Largest constant bandwidth allocatable on the pair over ``[t0, t1)``."""
        return min(
            self.free_capacity("ingress", ingress, t0, t1),
            self.free_capacity("egress", egress, t0, t1),
        )

    def allocate(
        self,
        ingress: int,
        egress: int,
        t0: float,
        t1: float,
        bw: float,
        *,
        check: bool = True,
    ) -> None:
        """Commit ``bw`` on the pair over ``[t0, t1)``.

        With ``check=True`` (default) a :class:`CapacityError` is raised and
        the ledger left untouched when the allocation would overflow either
        port.
        """
        if bw < 0:
            raise CapacityError(f"negative allocation {bw}")
        if check and not self.fits(ingress, egress, t0, t1, bw):
            raise CapacityError(
                f"allocation of {bw} MB/s on pair ({ingress}, {egress}) over "
                f"[{t0}, {t1}) exceeds a port capacity"
            )
        self._ingress[ingress].add(t0, t1, bw)
        self._egress[egress].add(t0, t1, bw)

    def release(self, ingress: int, egress: int, t0: float, t1: float, bw: float) -> None:
        """Return ``bw`` previously committed on the pair over ``[t0, t1)``."""
        if bw < 0:
            raise CapacityError(f"negative release {bw}")
        self._ingress[ingress].add(t0, t1, -bw)
        self._egress[egress].add(t0, t1, -bw)

    # ------------------------------------------------------------------
    # Stepwise rate profiles (malleable transfers)
    # ------------------------------------------------------------------
    def fits_segments(
        self, ingress: int, egress: int, segments: Iterable[tuple[float, float, float]]
    ) -> bool:
        """True when every ``(t0, t1, rate)`` step fits on both ports.

        Segments are normalized (non-overlapping), so each step is an
        independent constant-rate check — the 1-segment case is exactly
        :meth:`fits`, keeping constant-rate decisions byte-identical.
        """
        return all(self.fits(ingress, egress, t0, t1, rate) for t0, t1, rate in segments)

    def allocate_segments(
        self,
        ingress: int,
        egress: int,
        segments: Iterable[tuple[float, float, float]],
        *,
        check: bool = True,
    ) -> None:
        """Commit a stepwise profile on the pair, all segments or none.

        With ``check=True`` the whole profile is probed first and a
        :class:`CapacityError` raised (ledger untouched) when any step
        would overflow either port.
        """
        steps = tuple(segments)
        if check and not self.fits_segments(ingress, egress, steps):
            raise CapacityError(
                f"profile of {len(steps)} segments on pair ({ingress}, {egress}) "
                f"exceeds a port capacity"
            )
        for t0, t1, rate in steps:
            self._ingress[ingress].add(t0, t1, rate)
            self._egress[egress].add(t0, t1, rate)

    def release_segments(
        self, ingress: int, egress: int, segments: Iterable[tuple[float, float, float]]
    ) -> None:
        """Return a previously committed stepwise profile on the pair."""
        for t0, t1, rate in segments:
            if rate < 0:
                raise CapacityError(f"negative release {rate}")
            self._ingress[ingress].add(t0, t1, -rate)
            self._egress[egress].add(t0, t1, -rate)

    # ------------------------------------------------------------------
    def ingress_usage_at(self, i: int, t: float) -> float:
        """Committed bandwidth on ingress ``i`` at time ``t``."""
        return self._ingress[i].usage_at(t)

    def egress_usage_at(self, e: int, t: float) -> float:
        """Committed bandwidth on egress ``e`` at time ``t``."""
        return self._egress[e].usage_at(t)

    def max_overcommit(self) -> float:
        """Worst-case overshoot ``usage - capacity`` across all ports.

        Non-positive for a valid ledger; used by the verifier and tests.
        Accounts for time-varying capacity on degraded ports.
        """
        worst = -math.inf
        for side, timelines in (("ingress", self._ingress), ("egress", self._egress)):
            for port, tl in enumerate(timelines):
                reductions = self._ingress_red if side == "ingress" else self._egress_red
                if reductions[port] is None:
                    worst = max(worst, tl.global_max() - self._base_capacity(side, port))
                else:
                    span = self._span(tl, reductions[port])
                    if span is None:
                        worst = max(worst, tl.global_max() - self._base_capacity(side, port))
                    else:
                        worst = max(worst, self.overcommit_on(side, port, *span))
        return worst

    @staticmethod
    def _span(*timelines: CapacityProfile | None) -> tuple[float, float] | None:
        """A finite interval covering every breakpoint of the profiles."""
        lo, hi = math.inf, -math.inf
        for tl in timelines:
            if tl is None:
                continue
            points = tl.breakpoints()
            if points.size:
                lo = min(lo, float(points[0]))
                hi = max(hi, float(points[-1]))
        if lo >= hi:
            return None
        return lo, hi + 1.0  # cover the final right-open segment start

    def carried_volume(self, t0: float, t1: float) -> float:
        """Total MB carried through the network over ``[t0, t1)``.

        Ingress and egress each see the full volume, hence the factor ½ —
        mirroring the paper's utilisation scaling.
        """
        total = _kernel_carried_volume(chain(self._ingress, self._egress), t0, t1)
        return 0.5 * total

    def is_empty(self) -> bool:
        """True when nothing is committed anywhere."""
        return all(tl.is_zero() for tl in self._ingress) and all(
            tl.is_zero() for tl in self._egress
        )

    def copy(self) -> PortLedger:
        """Deep copy (used by look-ahead heuristics and the B&B solver)."""
        clone = PortLedger.__new__(PortLedger)
        clone.platform = self.platform
        clone._ingress = [tl.copy() for tl in self._ingress]
        clone._egress = [tl.copy() for tl in self._egress]
        clone._ingress_red = [tl.copy() if tl is not None else None for tl in self._ingress_red]
        clone._egress_red = [tl.copy() if tl is not None else None for tl in self._egress_red]
        return clone
