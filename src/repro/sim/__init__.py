"""Discrete-event simulation substrate.

A deterministic heap-based engine used by the fluid (max-min) baseline and
the overlay control plane.  See :class:`Simulator`.
"""

from .engine import Simulator
from .events import Event, EventQueue

__all__ = ["Event", "EventQueue", "Simulator"]
