"""Cost factors for the time-window decomposition heuristics (paper §4.2).

Within each time interval ``[t_i, t_{i+1})``, active requests are served in
non-decreasing cost order.  Three published cost factors:

- **CUMULATED-SLOTS** — ``bw / (b_min × priority)`` where
  ``priority(r, [t_i, t_{i+1})) = (t_{i+1} − t_s) / (t_f − t_s)`` accounts
  for resources already invested in the request, and
  ``b_min = min(B_in(ingress), B_out(egress))`` normalises by the pair's
  bottleneck;
- **MINBW-SLOTS** — ``bw``: smallest demands first;
- **MINVOL-SLOTS** — ``vol``: smallest transfers first.

Two ablation variants (``no-priority``, ``no-bmin``) isolate the two terms
of the CUMULATED cost for the design-choice benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..core.platform import Platform
from ..core.request import Request

__all__ = [
    "SlotCost",
    "ArrivalCost",
    "CumulatedCost",
    "MinBwCost",
    "MinVolCost",
    "priority_factor",
]


def priority_factor(request: Request, t_lo: float, t_hi: float) -> float:
    """The §4.2 priority: fraction of the window elapsed at interval end.

    ``priority(r, [t_i, t_{i+1})) = (t_{i+1} − t_s(r)) / (t_f(r) − t_s(r))``.
    Grows from the relative length of the first interval to 1 in the last,
    so long-running, already-invested requests become cheap to keep.
    """
    return (t_hi - request.t_start) / (request.t_end - request.t_start)


class SlotCost(abc.ABC):
    """Orders active requests within one decomposition interval."""

    #: Identifier used in scheduler names ("cumulated-slots" etc.).
    name: str = "cost"

    @abc.abstractmethod
    def cost(self, request: Request, t_lo: float, t_hi: float, platform: Platform) -> float:
        """Cost of ``request`` on interval ``[t_lo, t_hi)``; lower is served first."""


@dataclass(frozen=True)
class CumulatedCost(SlotCost):
    """The CUMULATED-SLOTS cost: ``bw / (b_min × priority)``.

    ``use_priority=False`` and ``use_bmin=False`` switch off the respective
    term (ablation variants; both off degenerates to MINBW-SLOTS).
    """

    use_priority: bool = True
    use_bmin: bool = True

    def __post_init__(self) -> None:
        suffix = ""
        if not self.use_priority:
            suffix += "-nopriority"
        if not self.use_bmin:
            suffix += "-nobmin"
        object.__setattr__(self, "name", "cumulated" + suffix)

    def cost(self, request: Request, t_lo: float, t_hi: float, platform: Platform) -> float:
        value = request.min_rate
        if self.use_bmin:
            value /= platform.bottleneck(request.ingress, request.egress)
        if self.use_priority:
            value /= priority_factor(request, t_lo, t_hi)
        return value


@dataclass(frozen=True)
class ArrivalCost(SlotCost):
    """FIFO-within-interval cost: earliest requested start first.

    Models the paper's FIFO baseline inside the decomposition machinery: no
    selective rejection, requests simply "block each other" in arrival
    order (ties: smaller bandwidth first, §4.1), and a request losing a
    later slice of its window has wasted its earlier slices.
    """

    name: str = "fifo"

    def cost(self, request: Request, t_lo: float, t_hi: float, platform: Platform) -> float:
        return request.t_start


@dataclass(frozen=True)
class MinBwCost(SlotCost):
    """The MINBW-SLOTS cost: the request's fixed bandwidth."""

    name: str = "minbw"

    def cost(self, request: Request, t_lo: float, t_hi: float, platform: Platform) -> float:
        return request.min_rate


@dataclass(frozen=True)
class MinVolCost(SlotCost):
    """The MINVOL-SLOTS cost: the request's volume."""

    name: str = "minvol"

    def cost(self, request: Request, t_lo: float, t_hi: float, platform: Platform) -> float:
        return request.volume
