"""Admission and bandwidth-sharing heuristics (paper §4 and §5).

Rigid-request heuristics: :class:`FCFSRigid` and the Algorithm 1 SLOTS
family (:func:`cumulated_slots`, :func:`minbw_slots`, :func:`minvol_slots`).
Flexible-request heuristics: :class:`GreedyFlexible` (Algorithm 2) and
:class:`WindowFlexible` (Algorithm 3), parameterised by a
:class:`BandwidthPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# The package imports no submodule up front (see ``repro._lazy``): an
# admission service needs only ``policies``.
if TYPE_CHECKING:
    from .advance import EarliestStartFlexible, GuaranteedProfile
    from .base import Scheduler
    from .costs import (
        ArrivalCost,
        CumulatedCost,
        MinBwCost,
        MinVolCost,
        SlotCost,
        priority_factor,
    )
    from .flexible import GreedyFlexible, WindowFlexible
    from .localsearch import LocalSearchScheduler
    from .policies import (
        BandwidthPolicy,
        FractionOfMaxPolicy,
        FullRatePolicy,
        MinRatePolicy,
        policy_from_name,
    )
    from .registry import RIGID_SCHEDULERS, available_schedulers, make_scheduler
    from .retry import BackoffSchedule, RetryGreedyFlexible
    from .rigid import (
        FCFSRigid,
        SlotsScheduler,
        cumulated_slots,
        fifo_slots,
        minbw_slots,
        minvol_slots,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".advance": ("EarliestStartFlexible", "GuaranteedProfile"),
        ".base": ("Scheduler",),
        ".costs": (
            "ArrivalCost",
            "CumulatedCost",
            "MinBwCost",
            "MinVolCost",
            "SlotCost",
            "priority_factor",
        ),
        ".flexible": ("GreedyFlexible", "WindowFlexible"),
        ".localsearch": ("LocalSearchScheduler",),
        ".policies": (
            "BandwidthPolicy",
            "FractionOfMaxPolicy",
            "FullRatePolicy",
            "MinRatePolicy",
            "policy_from_name",
        ),
        ".registry": ("RIGID_SCHEDULERS", "available_schedulers", "make_scheduler"),
        ".retry": ("BackoffSchedule", "RetryGreedyFlexible"),
        ".rigid": (
            "FCFSRigid",
            "SlotsScheduler",
            "cumulated_slots",
            "fifo_slots",
            "minbw_slots",
            "minvol_slots",
        ),
    },
    globals(),
)

__all__ = [
    "ArrivalCost",
    "BackoffSchedule",
    "BandwidthPolicy",
    "CumulatedCost",
    "EarliestStartFlexible",
    "FCFSRigid",
    "FractionOfMaxPolicy",
    "FullRatePolicy",
    "GreedyFlexible",
    "GuaranteedProfile",
    "LocalSearchScheduler",
    "MinBwCost",
    "MinRatePolicy",
    "MinVolCost",
    "RIGID_SCHEDULERS",
    "RetryGreedyFlexible",
    "Scheduler",
    "SlotCost",
    "SlotsScheduler",
    "WindowFlexible",
    "available_schedulers",
    "cumulated_slots",
    "fifo_slots",
    "make_scheduler",
    "minbw_slots",
    "minvol_slots",
    "policy_from_name",
    "priority_factor",
]
