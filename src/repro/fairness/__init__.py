"""Statistical bandwidth-sharing baseline (max-min fairness).

The paper's motivating comparison: what TCP-style fair sharing does to the
same bulk workload that the reservation schedulers admission-control.  See
:func:`maxmin_rates` (progressive filling) and :class:`FluidSimulation`.
"""

from .fluid import FlowOutcome, FluidResult, FluidSimulation
from .maxmin import is_maxmin_fair, maxmin_rates
from .tcp_model import (
    BIC_LIKE,
    RENO,
    ResponseFunction,
    rtt_unfairness,
)

__all__ = [
    "BIC_LIKE",
    "FlowOutcome",
    "FluidResult",
    "FluidSimulation",
    "RENO",
    "ResponseFunction",
    "is_maxmin_fair",
    "maxmin_rates",
    "rtt_unfairness",
]
