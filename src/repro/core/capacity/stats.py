"""Volume and utilisation accounting over capacity profiles.

The carried-volume and per-port-utilisation sums behind
:meth:`repro.core.ledger.PortLedger.carried_volume` and the metrics
layer's Jain-index inputs, expressed once against the kernel interface so
the accounting cannot drift between consumers.  Sums run left to right in
iteration order — the production class and its oracle then produce
bit-identical totals.
"""

from __future__ import annotations

from collections.abc import Iterable

from .interface import CapacityProfile

__all__ = ["carried_volume", "utilisation"]


def carried_volume(profiles: Iterable[CapacityProfile], t0: float, t1: float) -> float:
    """Summed ``∫ usage dt`` over ``profiles`` on ``[t0, t1)`` (MB)."""
    total = 0.0
    for profile in profiles:
        total += profile.integral(t0, t1)
    return total


def utilisation(profile: CapacityProfile, capacity: float, t0: float, t1: float) -> float:
    """Time-averaged fraction of ``capacity`` carried over ``[t0, t1)``."""
    horizon = t1 - t0
    if horizon <= 0 or capacity <= 0:
        return 0.0
    return profile.integral(t0, t1) / (capacity * horizon)
