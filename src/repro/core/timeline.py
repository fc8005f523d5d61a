"""Backwards-compatible name of the capacity kernel's production class.

``BandwidthTimeline`` used to be the concrete breakpoint-list class that
every layer poked at; the implementation now lives in
:mod:`repro.core.capacity` as
:class:`~repro.core.capacity.BreakpointProfile`, and this name is a plain
alias of it.  New code annotates against
:class:`~repro.core.capacity.CapacityProfile` and builds profiles with
:func:`~repro.core.capacity.make_profile`.
"""

from __future__ import annotations

from .capacity import BreakpointProfile

__all__ = ["BandwidthTimeline"]

BandwidthTimeline = BreakpointProfile
