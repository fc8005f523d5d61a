"""Fault-tolerance figures of an admission plane, read off its records.

The paper motivates reservations with reliability — "a large amount of
resources could be wasted when long transfer failure occurs" (§6).  When
a gateway runs with failure injection (:mod:`repro.control.faults`)
these figures quantify the damage and the recovery:

- **wasted volume** — MB carried by transfers that later aborted;
- **freed volume** — MB of reservation tail returned to the shards by
  aborts and outage displacements;
- **recovered volume** — MB of residual transfer successfully rebooked
  after an abort or displacement ended the original reservation;
- **re-admission rate** — fraction of backlogged rejections later admitted;
- **mean time to rebook** — termination-to-rebooking latency.

:meth:`FaultStats.of` derives every figure from the plane's reservations,
degradations and :class:`~repro.gateway.gateway.GatewayStats`; nothing
here is a counter the plane has to keep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..gateway.gateway import Gateway

__all__ = ["FaultStats"]


@dataclass(frozen=True)
class FaultStats:
    """The fault and recovery figures of one plane (see :meth:`of`)."""

    #: Mid-flight transfer aborts processed.
    aborted: int = 0
    #: Port degradations / outages applied.
    degradations: int = 0
    #: Reservations cancelled because a degradation left them infeasible.
    displaced: int = 0
    #: Live reservations whose tail was re-shaped into residual capacity
    #: (the malleable-transfer recovery verb, tried before displacement).
    reshaped: int = 0
    #: MB carried by transfers before they aborted (burned for nothing).
    wasted_volume: float = 0.0
    #: MB of reservation tail returned to the shards by aborts/displacements.
    freed_volume: float = 0.0
    #: Residual MB successfully rebooked after an abort or displacement.
    recovered_volume: float = 0.0
    #: Rebooking submissions attempted for aborted or displaced residuals.
    rebook_attempts: int = 0
    #: Rebooking submissions admitted.
    rebooked: int = 0
    #: Σ (rebooked_at − terminated_at) over admitted rebookings, seconds.
    rebook_wait_total: float = 0.0
    #: Rejections parked in the re-admission backlog.
    backlogged: int = 0
    #: Backlogged rejections later admitted.
    readmitted: int = 0
    #: MB admitted through backlog re-admission.
    readmitted_volume: float = 0.0

    @classmethod
    def of(cls, plane: Gateway) -> FaultStats:
        """Derive the figures from ``plane``'s records.

        Wasted volume is what aborted reservations carried; freed volume
        the unconsumed tail of aborted or displaced ones.  A reservation
        whose ``origin`` is an aborted or displaced one is a rebooking; one
        whose ``origin`` was rejected is a backlog re-admission.
        """
        stats = plane.stats
        wasted = freed = recovered = wait = readmitted_volume = 0.0
        attempts = rebooked = 0
        for r in plane.reservations():
            ended = r.aborted_at is not None or r.displaced_at is not None
            if r.aborted_at is not None:
                wasted += r.carried
            if ended and r.allocation is not None:
                freed += r.allocation.transferred - r.carried
            if r.origin is None:
                continue
            parent = plane.get(r.origin)
            if not parent.confirmed:
                if r.confirmed:
                    readmitted_volume += r.request.volume
            elif parent.aborted_at is not None or parent.displaced_at is not None:
                attempts += 1
                if r.confirmed:
                    rebooked += 1
                    recovered += r.request.volume
                    wait += r.request.t_start - parent.terminated_at
        return cls(
            aborted=stats.aborted,
            degradations=len(plane.degradations()),
            displaced=stats.displaced,
            reshaped=stats.reshaped,
            wasted_volume=wasted,
            freed_volume=freed,
            recovered_volume=recovered,
            rebook_attempts=attempts,
            rebooked=rebooked,
            rebook_wait_total=wait,
            backlogged=stats.backlogged,
            readmitted=stats.readmitted,
            readmitted_volume=readmitted_volume,
        )

    # ------------------------------------------------------------------
    @property
    def readmission_rate(self) -> float:
        """Backlogged rejections that were eventually admitted."""
        return self.readmitted / self.backlogged if self.backlogged else 0.0

    @property
    def rebook_rate(self) -> float:
        """Displaced reservations whose residual volume found a new slot."""
        return self.rebooked / self.displaced if self.displaced else 0.0

    @property
    def mean_time_to_rebook(self) -> float:
        """Mean termination-to-rebooking latency in seconds."""
        return self.rebook_wait_total / self.rebooked if self.rebooked else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Figures plus derived rates, flat (CSV/JSON friendly)."""
        out = asdict(self)
        out["readmission_rate"] = self.readmission_rate
        out["rebook_rate"] = self.rebook_rate
        out["mean_time_to_rebook"] = self.mean_time_to_rebook
        return out
