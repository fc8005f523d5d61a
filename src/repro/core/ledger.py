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

Both are the one-segment case of the stepwise forms
(``allocate_segments`` / ``release_segments``): a booking reaches capacity
state as a tuple of ``(t0, t1, rate)`` segments, and :meth:`Port.fits` /
:meth:`Port.add` are the only probe and the only writer of a port's usage
(:meth:`Port.book` is the two in one call).

Capacities may be **time-varying**: :meth:`PortLedger.degrade` registers a
capacity reduction over an interval (a maintenance window, a partial link
failure, or a full outage when the reduction equals the port capacity).
Reductions are tracked on separate timelines so committed usage and lost
capacity stay independently inspectable; every query (``fits``,
``free_capacity``, ``max_overcommit``) accounts for them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from collections.abc import Sequence
from typing import Any

from .capacity import CAPACITY_SLACK, CapacityProfile, make_profile
from .errors import CapacityError, ConfigurationError
from .packed import pack, unpack
from .platform import Platform
from .profile import Segment

__all__ = ["Port", "PortLedger", "Degradation", "CAPACITY_SLACK"]


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


class Port:
    """One access point: its capacity, the bandwidth committed on it and the
    capacity it has lost to registered degradations.

    The only place the degradation-aware Eq. 1 test and its slack
    (``capacity · CAPACITY_SLACK``, the port's own) are written, and —
    through :meth:`add` and :meth:`book` — the only writer of its usage:
    :class:`PortLedger` and the gateway's shard brokers both hold their
    state as ``Port``\\ s and the book-ahead searches query them directly.
    """

    __slots__ = ("capacity", "usage", "reductions", "peak", "peaked_at", "proof", "proved_at")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        #: Committed bandwidth over time.
        self.usage: CapacityProfile = make_profile()
        #: ``usage.global_max()`` as :meth:`add` left it, and ``usage.writes``
        #: then: the headroom test and the overcommit probe read it.
        self.peak = 0.0
        self.peaked_at = 0
        #: Lost capacity over time; created by the first :meth:`degrade` —
        #: most simulations never degrade a port and must not pay for the
        #: possibility.
        self.reductions: CapacityProfile | None = None
        #: The last step a probe or the headroom test proved fits, and
        #: ``usage.writes`` then: the answer depends only on the step, the
        #: runs and the capacity (never changed), so it holds until a write.
        self.proof: Segment | None = None
        self.proved_at = -1

    def degrade(self, t0: float, t1: float, amount: float) -> None:
        """Take ``amount`` MB/s of capacity away over ``[t0, t1)``."""
        self.proof = None
        if self.reductions is None:
            self.reductions = make_profile()
        self.reductions.add(t0, t1, amount)

    def edges(self, lo: float = -math.inf, hi: float = math.inf) -> list[float]:
        """Finite instants in ``(lo, hi]`` where the effective capacity changes."""
        if self.reductions is None:
            return []
        return self.reductions.breakpoints_between(lo, hi)

    def overcommit_on(self, t0: float, t1: float) -> float:
        """Worst ``usage - capacity`` over ``[t0, t1)``.

        Positive values mean committed reservations exceed the (possibly
        degraded) capacity somewhere in the interval.
        """
        if self.reductions is None:
            return self.usage.max_usage(t0, t1) - self.capacity
        return max(
            (
                self.usage.max_usage(seg_start, seg_end) - max(0.0, self.capacity - reduction)
                for seg_start, seg_end, reduction in self.reductions.segments(t0, t1)
            ),
            default=-math.inf,
        )

    def free_capacity(self, t0: float, t1: float) -> float:
        """Guaranteed free bandwidth over all of ``[t0, t1)``.

        The minimum over the interval of ``capacity(t) - usage(t)``, floored
        at zero; the largest constant rate the port can still carry there.
        """
        if self.reductions is None:
            return max(0.0, self.capacity - self.usage.max_usage(t0, t1))
        return max(0.0, -self.overcommit_on(t0, t1))

    def blocker(self, t0: float, t1: float, bw: float) -> tuple[float, float] | None:
        """``None`` when ``bw`` fits over all of ``[t0, t1)``; else an
        interval that keeps failing.

        On a constant capacity the answer is the kernel's
        (:meth:`~repro.core.capacity.CapacityProfile.blocker`): the blocking
        usage segment ``[a, b)``.  Until the port is mutated, any rate
        ``>= bw`` over any interval overlapping ``[a, b)`` fails too, which
        is what lets :func:`~repro.core.booking.earliest_fit` fail later
        candidates without asking again.  A degraded port answers with the
        empty ``(t0, t0)``: nothing overlaps it, so nothing is learned.
        An undegraded ``None`` is kept as the port's proof (:meth:`proven`).
        """
        if self.reductions is None:
            usage = self.usage
            blocked = usage.blocker(t0, t1, bw, self.capacity)
            if blocked is None:
                self.proof, self.proved_at = (t0, t1, bw), usage.writes
            return blocked
        if self.free_capacity(t0, t1) + self.capacity * CAPACITY_SLACK < bw:
            return (t0, t0)
        return None

    def fits_headroom(self, t0: float, t1: float, bw: float) -> bool:
        """The headroom fast path's test, which proves ``[t0, t1)``: an
        undegraded port whose all-time peak (never below 0) leaves ``bw``
        (:func:`~repro.core.capacity.fits_under`, inlined)."""
        if self.reductions is not None:
            return False
        writes = self.usage.writes
        peak = self.peak if self.peaked_at == writes else self.usage.global_max()
        capacity = self.capacity
        if (peak if peak > 0.0 else 0.0) + bw <= capacity + capacity * CAPACITY_SLACK:
            self.proof, self.proved_at = (t0, t1, bw), writes
            return True
        return False

    def proven(self, segments: Sequence[Segment]) -> bool:
        """Are ``segments`` the one step last proved, with no write since?"""
        proved = self.proved_at == self.usage.writes
        return proved and len(segments) == 1 and segments[0] == self.proof

    def fits(self, segments: Sequence[Segment]) -> bool:
        """Would every ``(t0, t1, rate)`` step fit?  Steps do not overlap,
        so each is an independent :meth:`blocker` probe, unless
        :meth:`proven`."""
        return self.proven(segments) or all(self.blocker(*step) is None for step in segments)

    def add(self, segments: Sequence[Segment], sign: float = 1.0) -> None:
        """Commit (``sign=1``) or return (``sign=-1``) ``(t0, t1, rate)``
        steps, unprobed: the only writer of :attr:`usage`.

        A negative rate raises :class:`CapacityError` before any step lands.
        """
        for _, _, rate in segments:
            if rate < 0:
                raise CapacityError(f"negative rate {rate}")
        usage = self.usage
        for t0, t1, rate in segments:
            usage.add(t0, t1, sign * rate)
        self.peak, self.peaked_at = usage.global_max(), usage.writes

    def book(self, segments: Sequence[Segment]) -> bool:
        """:meth:`add` the steps iff they :meth:`fit <fits>` (a :meth:`proven`
        step is not probed again); whether it did.  A negative rate raises
        :class:`CapacityError` and books nothing, fitting or not."""
        if self.fits(segments):
            self.add(segments)  # checks the rates before any step lands
            return True
        for _, _, rate in segments:
            if rate < 0:
                raise CapacityError(f"negative rate {rate}")
        return False

    def max_overcommit(self) -> float:
        """Worst ``usage - capacity`` over all time."""
        edges = self.edges()
        if edges:
            points = [*edges, *self.usage.breakpoints_between(-math.inf, math.inf)]
            # + 1.0 covers the start of the final right-open segment.
            return self.overcommit_on(min(points), max(points) + 1.0)
        return self.usage.global_max() - self.capacity

    def dump_state(self) -> list[Any]:
        """``[usage runs, reduction runs or None]``, JSON-able: each
        profile's :meth:`CapacityProfile.runs
        <repro.core.capacity.CapacityProfile.runs>` as two packed float
        columns (:func:`~repro.core.packed.pack`), what :meth:`load_state`
        rebuilds exactly."""
        reductions = self.reductions
        return [_pack_runs(self.usage), None if reductions is None else _pack_runs(reductions)]

    def load_state(self, state: Sequence[Any]) -> None:
        """Replace usage and reductions by a :meth:`dump_state` (the capacity
        stays the platform's); also reads the runs as plain lists, as
        checkpoints wrote them before they were packed."""
        usage, reductions = state
        self.usage.load_runs(*_unpack_runs(usage))
        self.peak, self.peaked_at = self.usage.global_max(), self.usage.writes
        if reductions is None:
            self.reductions = None
        else:
            self.reductions = make_profile()
            self.reductions.load_runs(*_unpack_runs(reductions))


def _pack_runs(profile: CapacityProfile) -> list[str]:
    return [pack(array("d", runs)) for runs in profile.runs()]


def _unpack_runs(runs: Sequence[Any]) -> Sequence[Any]:
    """Packed runs' two columns (the kernel's ``load_runs`` checks them);
    lists as they are."""
    points, values = runs
    if isinstance(points, str):
        return unpack("d", points), unpack("d", values)
    return runs


class PortLedger:
    """Tracks committed bandwidth on every access point of a platform."""

    __slots__ = ("platform", "_ingress", "_egress")

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._ingress = [Port(platform.bin(i)) for i in range(platform.num_ingress)]
        self._egress = [Port(platform.bout(e)) for e in range(platform.num_egress)]

    # ------------------------------------------------------------------
    def ports(self, ingress: int, egress: int) -> tuple[Port, Port]:
        """The two :class:`Port`\\ s of a pair (live) — all a book-ahead
        search reads (:class:`~repro.core.booking.LedgerView`)."""
        return self._ingress[ingress], self._egress[egress]

    def port(self, side: str, port: int) -> Port:
        """One :class:`Port` by side name (live)."""
        if side == "ingress":
            return self._ingress[port]
        if side == "egress":
            return self._egress[port]
        raise ConfigurationError(f"side must be 'ingress' or 'egress', got {side!r}")

    def ingress_timeline(self, i: int) -> CapacityProfile:
        """The usage profile of ingress point ``i`` (live view)."""
        return self._ingress[i].usage

    def egress_timeline(self, e: int) -> CapacityProfile:
        """The usage profile of egress point ``e`` (live view)."""
        return self._egress[e].usage

    # ------------------------------------------------------------------
    # Time-varying capacity
    # ------------------------------------------------------------------
    def degrade(self, degradation: Degradation) -> None:
        """Register a capacity reduction (see :class:`Degradation`).

        Degradations are external facts, not allocations: they are applied
        unconditionally and may leave already-committed reservations beyond
        the remaining capacity — callers inspect :meth:`Port.overcommit_on` to
        find and displace them.
        """
        d = degradation
        ports = self._ingress if d.side == "ingress" else self._egress
        if not (0 <= d.port < len(ports)):
            raise ConfigurationError(f"no {d.side} port {d.port} on this platform")
        ports[d.port].degrade(d.t0, d.t1, d.amount)

    def free_capacity(self, side: str, port: int, t0: float, t1: float) -> float:
        """Guaranteed free bandwidth on a port over all of ``[t0, t1)``
        (:meth:`Port.free_capacity`)."""
        return self.port(side, port).free_capacity(t0, t1)

    def degradation_edges(self, side: str, port: int) -> list[float]:
        """Finite instants where a port's effective capacity changes."""
        return self.port(side, port).edges()

    # ------------------------------------------------------------------
    def fits(self, ingress: int, egress: int, t0: float, t1: float, bw: float) -> bool:
        """True when ``bw`` fits on both ports over all of ``[t0, t1)``."""
        return (
            self._ingress[ingress].blocker(t0, t1, bw) is None
            and self._egress[egress].blocker(t0, t1, bw) is None
        )

    def allocate(
        self, ingress: int, egress: int, t0: float, t1: float, bw: float, *, check: bool = True
    ) -> None:
        """Commit ``bw`` on the pair over ``[t0, t1)``: the one-segment
        :meth:`allocate_segments`."""
        self.allocate_segments(ingress, egress, ((t0, t1, bw),), check=check)

    def release(self, ingress: int, egress: int, t0: float, t1: float, bw: float) -> None:
        """Return ``bw`` previously committed on the pair over ``[t0, t1)``:
        the one-segment :meth:`release_segments`."""
        self.release_segments(ingress, egress, ((t0, t1, bw),))

    # ------------------------------------------------------------------
    # Stepwise rate profiles (malleable transfers)
    # ------------------------------------------------------------------
    def allocate_segments(
        self, ingress: int, egress: int, segments: Sequence[Segment], *, check: bool = True
    ) -> None:
        """Commit ``(t0, t1, rate)`` steps on the pair, all or none.

        With ``check=True`` (default) every step is probed on both ports
        first and a :class:`CapacityError` raised (ledger untouched) when
        any would overflow either port.
        """
        port_in, port_out = self._ingress[ingress], self._egress[egress]
        if not check:
            port_out.add(segments)
        elif not (port_in.fits(segments) and port_out.book(segments)):
            raise CapacityError(
                f"booking of {len(segments)} step(s) on pair ({ingress}, {egress}) "
                f"exceeds a port capacity"
            )
        port_in.add(segments)

    def release_segments(self, ingress: int, egress: int, segments: Sequence[Segment]) -> None:
        """Return previously committed ``(t0, t1, rate)`` steps on the pair."""
        self._ingress[ingress].add(segments, -1.0)
        self._egress[egress].add(segments, -1.0)

    # ------------------------------------------------------------------
    def max_overcommit(self) -> float:
        """Worst-case overshoot ``usage - capacity`` across all ports.

        Non-positive for a valid ledger; used by the verifier and tests.
        Accounts for time-varying capacity on degraded ports.
        """
        return max(
            (port.max_overcommit() for port in chain(self._ingress, self._egress)),
            default=-math.inf,
        )
