"""Overlay control plane: the §5.4 signalling model, rate enforcement, drills.

:class:`ControlPlane` simulates the RSVP-like two-phase reservation between
ingress and egress access routers; :class:`TokenBucket` models the
client-side pacing / access-point drop enforcement.  The fault drills
(:mod:`repro.control.faults`) drive a :class:`~repro.gateway.Gateway` — the
client-facing reservation service — through mid-flight aborts, port
outages, broker crashes and message chaos; :mod:`repro.control.striped`
plans the §1 striped (multi-source) staging transfers offline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Every name below is imported on first access (see ``repro._lazy``), so
# ``import repro.control.service`` or ``.journal`` does not load the fault
# drills, the signalling simulation or the event engine they run on.
if TYPE_CHECKING:
    from ..gateway.token_bucket import TokenBucket, enforce_series
    from .faults import (
        CHAOS_SCENARIOS,
        AbortFault,
        BrokerCrash,
        ChaosMatrixReport,
        DrillReport,
        FaultInjector,
        PortFault,
        chaos_scenario,
        run_chaos_matrix,
        run_fault_drill,
    )
    from .messages import MessageType, ReservationMessage
    from .plane import ControlPlane
    from .router import PortAgent
    from .striped import StripedBooking, book_striped, plan_striped

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..gateway.token_bucket": ("TokenBucket", "enforce_series"),
        ".faults": (
            "CHAOS_SCENARIOS",
            "AbortFault",
            "BrokerCrash",
            "ChaosMatrixReport",
            "DrillReport",
            "FaultInjector",
            "PortFault",
            "chaos_scenario",
            "run_chaos_matrix",
            "run_fault_drill",
        ),
        ".messages": ("MessageType", "ReservationMessage"),
        ".plane": ("ControlPlane",),
        ".router": ("PortAgent",),
        ".striped": ("StripedBooking", "book_striped", "plan_striped"),
    },
    globals(),
)

__all__ = [
    "AbortFault",
    "BrokerCrash",
    "CHAOS_SCENARIOS",
    "ChaosMatrixReport",
    "ControlPlane",
    "DrillReport",
    "FaultInjector",
    "MessageType",
    "PortAgent",
    "PortFault",
    "ReservationMessage",
    "StripedBooking",
    "TokenBucket",
    "book_striped",
    "chaos_scenario",
    "enforce_series",
    "plan_striped",
    "run_chaos_matrix",
    "run_fault_drill",
]
