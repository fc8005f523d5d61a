"""Striped (multi-source) transfers — the GridFTP pattern (§1).

The paper's introduction grounds the model in GridFTP-style tools that
support "parallel, striped, partial, and third-party transfers": a dataset
replicated at several sites can be staged to one destination in parallel
stripes, one per source.  This module books such a transfer against a
:class:`~repro.core.ledger.PortLedger`: all stripes start together, each
at a constant rate, and share the destination's egress capacity.

The planner finds the **earliest common finish time**: candidate finish
times are the ledger breakpoints (headroom is piecewise constant, so the
optimum lies on one); for each candidate, per-source headroom is
water-filled under the egress budget until the volume fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.allocation import Allocation
from ..core.errors import ConfigurationError
from ..core.ledger import PortLedger
from ..core.platform import Platform

__all__ = ["StripedBooking", "plan_striped", "book_striped"]


@dataclass(frozen=True)
class StripedBooking:
    """A feasible striped plan: one allocation per contributing stripe."""

    allocations: tuple[Allocation, ...]
    finish: float

    @property
    def total_rate(self) -> float:
        """Aggregate transfer rate across stripes (MB/s)."""
        return sum(a.bw for a in self.allocations)

    @property
    def volume(self) -> float:
        """Total MB carried by the stripes."""
        return sum(a.transferred for a in self.allocations)


def _stripe_rates(
    ledger: PortLedger,
    platform: Platform,
    sources: list[int],
    egress: int,
    t0: float,
    t1: float,
    needed_rate: float,
    max_stream_rate: float | None,
) -> list[float] | None:
    """Water-fill per-source headroom up to ``needed_rate``; None if short."""
    free_egress = ledger.free_capacity("egress", egress, t0, t1)
    budget = min(needed_rate, free_egress)
    if budget < needed_rate * (1 - 1e-12):
        return None
    rates: list[float] = []
    remaining = needed_rate
    for source in sources:
        free = ledger.free_capacity("ingress", source, t0, t1)
        if max_stream_rate is not None:
            free = min(free, max_stream_rate)
        rate = max(0.0, min(free, remaining))
        rates.append(rate)
        remaining -= rate
    if remaining > needed_rate * 1e-12:
        return None
    return rates


def plan_striped(
    ledger: PortLedger,
    platform: Platform,
    *,
    sources: list[int],
    egress: int,
    volume: float,
    t_start: float,
    t_end: float,
    max_stream_rate: float | None = None,
    base_rid: int = 0,
) -> StripedBooking | None:
    """Plan (without booking) the earliest-finishing striped transfer.

    Returns ``None`` when even finishing exactly at the deadline is
    infeasible.  Stripes with zero assigned rate are omitted from the plan.
    """
    if volume <= 0:
        raise ConfigurationError(f"volume must be positive, got {volume}")
    if not sources:
        raise ConfigurationError("need at least one source")
    if len(set(sources)) != len(sources):
        raise ConfigurationError("duplicate sources")
    if not (0 <= egress < platform.num_egress) or not all(
        0 <= source < platform.num_ingress for source in sources
    ):
        raise ConfigurationError(f"unknown port among sources {sources} / egress {egress}")
    if not (t_end > t_start):
        raise ConfigurationError(f"empty window [{t_start}, {t_end}]")

    # Candidate horizons: every breakpoint strictly inside the window of
    # any involved timeline, plus the deadline.  Headroom over [t_start, b]
    # is constant between breakpoints, so for each horizon b we compute the
    # achievable aggregate rate R_b and check whether the transfer can end
    # at T* = t_start + volume / R_b ≤ b.  Rates sized against [t_start, b]
    # remain feasible on the shorter [t_start, T*] (headroom only grows as
    # the interval shrinks), so the first horizon that works is optimal up
    # to that conservatism.
    candidates = {t_end}
    candidates.update(ledger.egress_timeline(egress).breakpoints_between(t_start, t_end))
    for s in sources:
        candidates.update(ledger.ingress_timeline(s).breakpoints_between(t_start, t_end))
    for side, port in (("egress", egress), *(("ingress", s) for s in sources)):
        candidates.update(
            float(t) for t in ledger.degradation_edges(side, port) if t_start < t < t_end
        )

    def achievable_rate(horizon: float) -> float:
        free_egress = ledger.free_capacity("egress", egress, t_start, horizon)
        total = 0.0
        for source in sources:
            free = ledger.free_capacity("ingress", source, t_start, horizon)
            if max_stream_rate is not None:
                free = min(free, max_stream_rate)
            total += free
        return max(0.0, min(free_egress, total))

    for horizon in sorted(candidates):
        if horizon <= t_start:
            continue
        rate = achievable_rate(horizon)
        if rate <= 0:
            continue
        finish = t_start + volume / rate
        if finish > horizon * (1 + 1e-12):
            continue  # cannot complete within this horizon; try a later one
        needed = volume / (finish - t_start)
        rates = _stripe_rates(
            ledger, platform, sources, egress, t_start, horizon, needed, max_stream_rate
        )
        if rates is None:  # pragma: no cover - achievable_rate guarantees fit
            continue
        allocations = []
        for k, (source, stripe_rate) in enumerate(zip(sources, rates)):
            if stripe_rate <= 0:
                continue
            allocations.append(
                Allocation(
                    rid=base_rid + k,
                    ingress=source,
                    egress=egress,
                    bw=stripe_rate,
                    sigma=t_start,
                    tau=finish,
                )
            )
        return StripedBooking(tuple(allocations), finish)
    return None


def book_striped(
    ledger: PortLedger,
    platform: Platform,
    **kwargs,
) -> StripedBooking | None:
    """Plan and commit a striped transfer; ``None`` leaves the ledger
    untouched."""
    booking = plan_striped(ledger, platform, **kwargs)
    if booking is None:
        return None
    for alloc in booking.allocations:
        ledger.allocate(alloc.ingress, alloc.egress, alloc.sigma, alloc.tau, alloc.bw)
    return booking
