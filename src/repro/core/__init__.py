"""Core data model: requests, platforms, timelines, allocations, objectives.

This package implements the paper's system model (§2): short-lived transfer
requests with transmission windows, ingress/egress capacity constraints
(Eq. 1), and the MAX-REQUESTS / RESOURCE-UTIL objectives.
"""

from .allocation import Allocation, ScheduleResult, verify_schedule
from .booking import (
    FitProbe,
    RejectReason,
    book_earliest,
    earliest_fit,
    earliest_fit_profile,
    shape_profile,
)
from .capacity import (
    CAPACITY_SLACK,
    BreakpointProfile,
    CapacityProfile,
    make_profile,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    InvalidRequestError,
    ReproError,
    ScheduleViolation,
)
from .ledger import Degradation, Port, PortLedger
from .objectives import (
    demanded_bandwidth,
    guaranteed_count,
    guaranteed_rate,
    resource_utilization,
    resource_utilization_time_averaged,
)
from .platform import Platform
from .problem import ProblemInstance
from .profile import RateProfile
from .request import Request, RequestSet

__all__ = [
    "CAPACITY_SLACK",
    "Allocation",
    "BreakpointProfile",
    "CapacityError",
    "CapacityProfile",
    "ConfigurationError",
    "Degradation",
    "FitProbe",
    "InvalidRequestError",
    "Platform",
    "Port",
    "PortLedger",
    "ProblemInstance",
    "RateProfile",
    "RejectReason",
    "ReproError",
    "Request",
    "RequestSet",
    "ScheduleResult",
    "ScheduleViolation",
    "book_earliest",
    "demanded_bandwidth",
    "earliest_fit",
    "earliest_fit_profile",
    "shape_profile",
    "make_profile",
    "guaranteed_count",
    "guaranteed_rate",
    "resource_utilization",
    "resource_utilization_time_averaged",
    "verify_schedule",
]
