"""The single-ledger service's name, kept for the frozen benchmark.

``ReservationService`` is the default :class:`~repro.gateway.Gateway`
(one shard, batch size 1), which is the paper's §5.4 service.  Code
constructs ``Gateway`` directly; this module keeps only the names
``benchmarks/stack`` resolves on it.
"""

from __future__ import annotations

from typing import Any

# Unused: the frozen benchmarks/stack/tracer.py (CORE_TARGETS) resolves this
# name on this module until ROADMAP 1(b) re-baselines and item 4 retires
# the tracer's name lookup.
from ..core.booking import earliest_fit  # noqa: F401
from ..gateway.gateway import Gateway
from ..gateway.tickets import Ticket

__all__ = ["ReservationService"]


class ReservationService(Gateway):
    """The default gateway under its old name."""

    def submit(self, **fields: Any) -> Ticket:
        """:meth:`Gateway.submit`; defined here because the benchmark's
        tracer wraps ``ReservationService.__dict__["submit"]``."""
        return super().submit(**fields)
