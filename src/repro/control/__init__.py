"""Overlay control plane: distributed admission, rate enforcement, faults.

:class:`ControlPlane` simulates the RSVP-like two-phase reservation between
ingress and egress access routers; :class:`TokenBucket` models the
client-side pacing / access-point drop enforcement.
:class:`ReservationService` is the stateful client-facing API, hardened
against mid-flight aborts, port outages, and process crashes
(:mod:`repro.control.faults`, :mod:`repro.control.journal`).
"""

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
from .journal import Journal, JournalEntry
from .messages import MessageType, ReservationMessage
from .plane import ControlPlane
from .router import PortAgent
from .service import Reservation, ReservationService, ReservationState, RejectReason
from .striped import StripedBooking, book_striped, plan_striped
from .token_bucket import TokenBucket, enforce_series

__all__ = [
    "AbortFault",
    "BrokerCrash",
    "CHAOS_SCENARIOS",
    "ChaosMatrixReport",
    "ControlPlane",
    "DrillReport",
    "FaultInjector",
    "Journal",
    "JournalEntry",
    "MessageType",
    "PortAgent",
    "PortFault",
    "RejectReason",
    "Reservation",
    "ReservationService",
    "ReservationState",
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
