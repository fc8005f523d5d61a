"""Grid overlay platform model.

The paper's system model (§2, Figure 1) is a set of grid sites behind edge
("overlay") routers over a well-provisioned core: the core is lossless and
never the bottleneck, so the platform reduces to

- ``M`` **ingress points** with capacities ``B_in(i)``, and
- ``N`` **egress points** with capacities ``B_out(e)``.

A request consumes ``bw(r)`` at exactly one ingress and one egress for the
duration of its transfer; these access links are the only constrained
resources (Eq. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Platform"]


def _capacities(values: Iterable[float]) -> tuple[float, ...]:
    """One side's capacities as floats, refused unless one-dimensional,
    non-empty, finite and positive."""
    if getattr(values, "ndim", 1) != 1:
        raise ConfigurationError("capacities must be one-dimensional")
    try:
        caps = tuple(map(float, values))
    except TypeError:
        raise ConfigurationError("capacities must be one-dimensional") from None
    if not caps:
        raise ConfigurationError("platform needs at least one ingress and one egress")
    if not all(map(math.isfinite, caps)):
        raise ConfigurationError(f"capacities must be finite, got {list(caps)}")
    if min(caps) <= 0:
        raise ConfigurationError("capacities must be positive")
    return caps


def _frozen_array(caps: tuple[float, ...]) -> np.ndarray:
    import numpy as np

    arr = np.array(caps, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class Platform:
    """Capacities of the grid access points.

    Parameters
    ----------
    ingress_capacity:
        The ``M`` ingress capacities ``B_in(i)`` in MB/s.
    egress_capacity:
        The ``N`` egress capacities ``B_out(e)`` in MB/s.

    Every capacity must be finite and positive.  They are kept as tuples of
    floats, which is all the admission path and
    :func:`~.allocation.verify_schedule` read (:meth:`bin`, :meth:`bout`,
    :meth:`bottleneck`, :attr:`max_capacity`); :attr:`ingress_capacity` and
    :attr:`egress_capacity` are read-only float64 arrays for the offline
    analyses, built on first access, so a process that only admits and
    verifies never imports numpy.  ``num_ingress`` (``M``) and
    ``num_egress`` (``N``) are plain ints, set once: every submission's
    port check reads them.
    """

    _ingress: tuple[float, ...]
    _egress: tuple[float, ...]

    def __init__(
        self,
        ingress_capacity: Iterable[float],
        egress_capacity: Iterable[float],
    ) -> None:
        ingress, egress = _capacities(ingress_capacity), _capacities(egress_capacity)
        object.__setattr__(self, "_ingress", ingress)
        object.__setattr__(self, "_egress", egress)
        object.__setattr__(self, "num_ingress", len(ingress))
        object.__setattr__(self, "num_egress", len(egress))

    @cached_property
    def ingress_capacity(self) -> np.ndarray:
        """The ingress capacities as a read-only float64 array."""
        return _frozen_array(self._ingress)

    @cached_property
    def egress_capacity(self) -> np.ndarray:
        """The egress capacities as a read-only float64 array."""
        return _frozen_array(self._egress)

    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> float:
        """``sum B_in + sum B_out`` (both sides of the network)."""
        return float(self.ingress_capacity.sum() + self.egress_capacity.sum())

    @property
    def half_capacity(self) -> float:
        """``(sum B_in + sum B_out) / 2`` — the paper's load/utilisation denominator.

        A transfer consumes bandwidth at both an ingress and an egress, so
        total grantable throughput is half of the summed port capacities.
        """
        return 0.5 * self.total_capacity

    @property
    def max_capacity(self) -> float:
        """The largest port capacity on either side, read off the float
        tuples (no array is built)."""
        return max(max(self._ingress), max(self._egress))

    def bin(self, i: int) -> float:
        """Capacity ``B_in(i)`` of ingress point ``i``."""
        return self._ingress[i]

    def bout(self, e: int) -> float:
        """Capacity ``B_out(e)`` of egress point ``e``."""
        return self._egress[e]

    def bottleneck(self, i: int, e: int) -> float:
        """``b_min = min(B_in(i), B_out(e))`` for a pair — used by the
        CUMULATED-SLOTS cost factor (§4.2)."""
        return min(self._ingress[i], self._egress[e])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_ingress: int, num_egress: int, capacity: float) -> Platform:
        """All ports share one capacity — the paper's simulation platform.

        The published experiments use ``uniform(10, 10, 1000.0)``:
        10 ingress and 10 egress points at 1 GB/s each (§4.3).
        """
        return cls([capacity] * num_ingress, [capacity] * num_egress)

    @classmethod
    def paper_platform(cls) -> Platform:
        """The exact simulation platform of §4.3: 10×10 ports at 1 GB/s."""
        return cls.uniform(10, 10, 1000.0)

    @classmethod
    def grid5000(cls, site_capacities: Iterable[float] | None = None) -> Platform:
        """A Grid'5000-like platform: 8 sites, symmetric access links.

        Each site contributes one ingress and one egress point.  Default
        capacities mimic the heterogeneous access links of the eight French
        sites (between 1 and 10 Gbit/s ≈ 125–1250 MB/s).
        """
        if site_capacities is None:
            site_capacities = [1250.0, 1250.0, 1250.0, 625.0, 625.0, 625.0, 125.0, 125.0]
        caps = list(site_capacities)
        return cls(caps, caps)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {
            "ingress_capacity": list(self._ingress),
            "egress_capacity": list(self._egress),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Platform:
        """Inverse of :meth:`to_dict`."""
        return cls(data["ingress_capacity"], data["egress_capacity"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return self._ingress == other._ingress and self._egress == other._egress

    def __hash__(self) -> int:
        return hash((self._ingress, self._egress))

    def __repr__(self) -> str:
        return (
            f"Platform(ingress_capacity={self.ingress_capacity!r}, "
            f"egress_capacity={self.egress_capacity!r})"
        )
