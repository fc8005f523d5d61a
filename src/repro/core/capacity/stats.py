"""Utilisation accounting over capacity profiles.

The per-port utilisation behind the metrics layer's Jain-index inputs,
expressed once against the kernel interface so the accounting cannot drift
between consumers.
"""

from __future__ import annotations

from .interface import CapacityProfile

__all__ = ["utilisation"]


def utilisation(profile: CapacityProfile, capacity: float, t0: float, t1: float) -> float:
    """Time-averaged fraction of ``capacity`` carried over ``[t0, t1)``."""
    horizon = t1 - t0
    if horizon <= 0 or capacity <= 0:
        return 0.0
    return profile.integral(t0, t1) / (capacity * horizon)
