"""``repro.core.capacity`` — the capacity kernel.

The one place in the library that stores and queries per-port bandwidth
profiles (Eq. 1's range-max/range-add arithmetic).  Everything above —
:class:`~repro.core.ledger.PortLedger`, the booking search, the gateway's
shard brokers and headroom fast path, the scheduler families, the metrics
accounting — talks to the :class:`CapacityProfile` interface and builds
profiles with :func:`make_profile`; gridlint rule GL009 keeps the
breakpoint internals and both concrete classes private to this package.

Layering (modules above only ever call downward through the interface)::

    experiments / metrics / analysis
        schedulers (rigid, flexible, advance, localsearch)
            control (ReservationService)   gateway (brokers, 2PC)
                core.booking (earliest_fit)
                    core.ledger (PortLedger, Degradation)
                        repro.core.capacity   ← the kernel
                            BreakpointProfile

There is one production class, :class:`BreakpointProfile`.
:class:`repro.core.capacity.vector.VectorProfile` is the independent
reference implementation the equivalence fuzz compares it against;
nothing under ``src/`` imports or constructs it.  See ``docs/CAPACITY.md`` for the
interface contract, the complexity table and the measurements behind
"one backend".
"""

from __future__ import annotations

from .breakpoint import BreakpointProfile
from .checks import CAPACITY_SLACK, UTILISATION_LIMIT, fits_under, slack_capacity
from .interface import CapacityProfile
from .stats import carried_volume, utilisation

__all__ = [
    "CAPACITY_SLACK",
    "UTILISATION_LIMIT",
    "BreakpointProfile",
    "CapacityProfile",
    "carried_volume",
    "fits_under",
    "make_profile",
    "slack_capacity",
    "utilisation",
]


def make_profile() -> CapacityProfile:
    """A fresh identically-zero profile of the production class."""
    return BreakpointProfile()
