"""Units and quantity helpers used throughout the library.

Conventions (see DESIGN.md §5):

- **time** is expressed in seconds,
- **bandwidth** in megabytes per second (MB/s),
- **volume** in megabytes (MB).

The paper's 1 GB/s access ports are therefore ``1000.0`` and a 1 TB transfer
is ``1_000_000.0``.  Decimal prefixes are used (1 GB = 1000 MB), matching the
paper's networking context.

This module provides named constants, tolerance-aware comparisons and
compact formatting for reports.
"""

from __future__ import annotations

import math

__all__ = [
    "MB",
    "GB",
    "TB",
    "MBPS",
    "GBPS",
    "MINUTE",
    "HOUR",
    "DAY",
    "REL_TOL",
    "format_volume",
    "format_bandwidth",
    "format_duration",
    "close",
    "seconds_eq",
    "bandwidth_eq",
    "volume_eq",
]

# Volumes, in MB.
MB: float = 1.0
GB: float = 1000.0
TB: float = 1_000_000.0

# Bandwidths, in MB/s.
MBPS: float = 1.0
GBPS: float = 1000.0

# Times, in seconds.
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 86400.0

#: Default relative tolerance for quantity comparisons.  Times, rates and
#: volumes are sums/products of floats (``tau = sigma + volume / bw``); one
#: part in 10⁹ absorbs the round-off of any realistic chain of operations
#: while staying far below every physically meaningful difference.  Matches
#: ``repro.core.ledger.CAPACITY_SLACK`` and the deadline slack of
#: ``repro.core.booking.deadline_tolerance``.
REL_TOL: float = 1e-9


def close(a: float, b: float, *, rel: float = REL_TOL, floor: float = 1.0) -> bool:
    """Tolerance-aware equality for float quantities.

    True when ``|a - b| <= rel * max(floor, |a|, |b|)``.  The absolute
    ``floor`` keeps the tolerance meaningful near zero (where a purely
    relative bound collapses to exact equality): quantities at ``t ≈ 0`` or
    rates of a few MB/s still compare with ~1e-9 slack.  Infinities compare
    equal only to themselves; NaN compares equal to nothing.
    """
    if a == b:  # gridlint: disable=GL003 -- fast path incl. matching infinities
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


def seconds_eq(a: float, b: float, *, rel: float = REL_TOL) -> bool:
    """Are two times (seconds) equal up to numerical noise?

    The absolute floor of one second's 1e-9 matches
    :func:`repro.core.booking.deadline_tolerance`, so admission checks and
    comparisons written with either helper agree.
    """
    return close(a, b, rel=rel, floor=1.0)


def bandwidth_eq(a: float, b: float, *, rel: float = REL_TOL) -> bool:
    """Are two bandwidths (MB/s) equal up to numerical noise?"""
    return close(a, b, rel=rel, floor=1.0)


def volume_eq(a: float, b: float, *, rel: float = REL_TOL) -> bool:
    """Are two volumes (MB) equal up to numerical noise?"""
    return close(a, b, rel=rel, floor=1.0)


def _format_scaled(value: float, steps: list[tuple[float, str]], suffix: str) -> str:
    for factor, name in steps:
        if abs(value) >= factor:
            scaled = value / factor
            return f"{scaled:.4g}{name}{suffix}"
    return f"{value:.4g}MB{suffix}"


def format_volume(mb: float) -> str:
    """Format a volume in MB as a compact human-readable string."""
    if not math.isfinite(mb):
        return str(mb)
    return _format_scaled(mb, [(TB, "TB"), (GB, "GB"), (MB, "MB")], "")


def format_bandwidth(mbps: float) -> str:
    """Format a bandwidth in MB/s as a compact human-readable string."""
    if not math.isfinite(mbps):
        return str(mbps)
    return _format_scaled(mbps, [(GBPS, "GB"), (MBPS, "MB")], "/s")


def format_duration(seconds: float) -> str:
    """Format a duration in seconds as a compact human-readable string."""
    if not math.isfinite(seconds):
        return str(seconds)
    if abs(seconds) >= DAY:
        return f"{seconds / DAY:.4g}d"
    if abs(seconds) >= HOUR:
        return f"{seconds / HOUR:.4g}h"
    if abs(seconds) >= MINUTE:
        return f"{seconds / MINUTE:.4g}min"
    return f"{seconds:.4g}s"
