"""A two-port ledger view assembled from (up to two) shard brokers.

:func:`repro.core.booking.earliest_fit` searches one ingress/egress pair
against anything satisfying the :class:`~repro.core.booking.LedgerView`
protocol.  :class:`PairLedgerView` satisfies it by stitching the two
authoritative slices together: the ingress broker answers for the ingress
port, the egress broker for the egress port.

Shard-local pairs (both ports on one broker) delegate the joint ``fits``
to the broker's real :class:`~repro.core.ledger.PortLedger`, so a
single-shard gateway searches byte-for-byte the same predicate as the
monolithic service.  Cross-shard pairs combine the two per-side answers
with the same slack conventions.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.capacity import CAPACITY_SLACK, CapacityProfile, fits_under
from ..core.errors import ConfigurationError
from .broker import ShardBroker

__all__ = ["PairLedgerView"]


class PairLedgerView:
    """Read-only pair view over the owning brokers of one request's ports."""

    __slots__ = ("ingress_broker", "egress_broker", "ingress", "egress", "_local")

    def __init__(
        self,
        ingress_broker: ShardBroker,
        egress_broker: ShardBroker,
        ingress: int,
        egress: int,
    ) -> None:
        self.ingress_broker = ingress_broker
        self.egress_broker = egress_broker
        self.ingress = ingress
        self.egress = egress
        self._local = ingress_broker is egress_broker

    @property
    def is_local(self) -> bool:
        """True when both ports live on the same shard."""
        return self._local

    def _broker_for(self, side: str, port: int) -> ShardBroker:
        if side == "ingress" and port == self.ingress:
            return self.ingress_broker
        if side == "egress" and port == self.egress:
            return self.egress_broker
        raise ConfigurationError(
            f"pair view for ({self.ingress}, {self.egress}) cannot answer "
            f"for {side} port {port}"
        )

    # ------------------------------------------------------------------
    # The LedgerView protocol (what earliest_fit consumes)
    # ------------------------------------------------------------------
    def ingress_timeline(self, i: int) -> CapacityProfile:
        """Usage profile of the pair's ingress port."""
        return self._broker_for("ingress", i).timeline("ingress", i)

    def egress_timeline(self, e: int) -> CapacityProfile:
        """Usage profile of the pair's egress port."""
        return self._broker_for("egress", e).timeline("egress", e)

    def degradation_edges(self, side: str, port: int) -> Iterator[float]:
        """Capacity-change instants of either port of the pair."""
        return self._broker_for(side, port).degradation_edges(side, port)

    def free_capacity(self, side: str, port: int, t0: float, t1: float) -> float:
        """Guaranteed free bandwidth on either port over ``[t0, t1)``."""
        return self._broker_for(side, port).free_capacity(side, port, t0, t1)

    def _require_pair(self, ingress: int, egress: int) -> None:
        if ingress != self.ingress or egress != self.egress:
            raise ConfigurationError(
                f"pair view for ({self.ingress}, {self.egress}) asked about "
                f"({ingress}, {egress})"
            )

    def blocker(
        self, ingress: int, egress: int, t0: float, t1: float, bw: float
    ) -> tuple[float, float] | None:
        """:meth:`fits` for the search, answering as
        :meth:`PortLedger.blocker <repro.core.ledger.PortLedger.blocker>`
        does: ``None`` when the rate fits, else an interval that keeps
        failing (the empty ``(t0, t0)`` when either port is degraded)."""
        self._require_pair(ingress, egress)
        if self._local:
            return self.ingress_broker.pair_blocker(ingress, egress, t0, t1, bw)
        in_degraded = self.ingress_broker.has_degradations("ingress", ingress)
        out_degraded = self.egress_broker.has_degradations("egress", egress)
        if in_degraded or out_degraded:
            return None if self.fits(ingress, egress, t0, t1, bw) else (t0, t0)
        platform = self.ingress_broker.platform
        blocked = self.ingress_timeline(ingress).blocker(t0, t1, bw, platform.bin(ingress))
        return blocked or self.egress_timeline(egress).blocker(t0, t1, bw, platform.bout(egress))

    def fits(self, ingress: int, egress: int, t0: float, t1: float, bw: float) -> bool:
        """Joint pair fit, local-delegated or stitched across shards."""
        self._require_pair(ingress, egress)
        if self._local:
            return self.ingress_broker.pair_fits(ingress, egress, t0, t1, bw)
        platform = self.ingress_broker.platform
        cap_in = platform.bin(ingress)
        cap_out = platform.bout(egress)
        in_degraded = self.ingress_broker.has_degradations("ingress", ingress)
        out_degraded = self.egress_broker.has_degradations("egress", egress)
        if not in_degraded and not out_degraded:
            # Mirrors the PortLedger fast path: constant capacities.
            if not fits_under(
                self.ingress_broker.max_usage("ingress", ingress, t0, t1), bw, cap_in
            ):
                return False
            if not fits_under(
                self.egress_broker.max_usage("egress", egress, t0, t1), bw, cap_out
            ):
                return False
            return True
        slack = max(cap_in, cap_out) * CAPACITY_SLACK
        if self.ingress_broker.free_capacity("ingress", ingress, t0, t1) + slack < bw:
            return False
        if self.egress_broker.free_capacity("egress", egress, t0, t1) + slack < bw:
            return False
        return True
