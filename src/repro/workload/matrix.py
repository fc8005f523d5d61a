"""Traffic matrices: how requests pick their (ingress, egress) pair.

The paper's simulations pick pairs uniformly among distinct points (§4.3).
A hotspot selector is provided for the "relieving tentative hot spots"
direction the conclusion sketches: some ports attract a disproportionate
share of the traffic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.platform import Platform

__all__ = ["PairSelector", "UniformPairs", "HotspotPairs"]


class PairSelector(abc.ABC):
    """Draws (ingress, egress) index pairs for a platform."""

    @abc.abstractmethod
    def generate(
        self, platform: Platform, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return arrays ``(ingress, egress)`` of length ``n``."""


@dataclass(frozen=True)
class UniformPairs(PairSelector):
    """Uniform pairs; with ``exclude_same_index`` (default) a request never
    connects a site to itself (the paper's "any pair of different points")."""

    exclude_same_index: bool = True

    def generate(
        self, platform: Platform, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        m = platform.num_ingress
        k = platform.num_egress
        if self.exclude_same_index and m == 1 and k == 1:
            raise ConfigurationError("cannot exclude same-index pairs on a 1x1 platform")
        ingress = rng.integers(0, m, size=n)
        egress = rng.integers(0, k, size=n)
        if self.exclude_same_index:
            clash = ingress == egress
            while np.any(clash):
                egress[clash] = rng.integers(0, k, size=int(clash.sum()))
                clash = ingress == egress
        return ingress.astype(np.int64), egress.astype(np.int64)


class HotspotPairs(PairSelector):
    """Weighted pair selection: hotspot ports receive more requests.

    Parameters
    ----------
    ingress_weights, egress_weights:
        Relative popularity of each port; ``None`` means uniform.
    exclude_same_index:
        Re-draw the egress when it matches the ingress index.
    """

    def __init__(
        self,
        ingress_weights: Sequence[float] | None = None,
        egress_weights: Sequence[float] | None = None,
        exclude_same_index: bool = True,
    ) -> None:
        self._win = None if ingress_weights is None else np.asarray(ingress_weights, dtype=np.float64)
        self._wout = None if egress_weights is None else np.asarray(egress_weights, dtype=np.float64)
        for w in (self._win, self._wout):
            if w is not None and (w.ndim != 1 or np.any(w < 0) or w.sum() <= 0):
                raise ConfigurationError("weights must be non-negative with positive sum")
        self.exclude_same_index = exclude_same_index

    @staticmethod
    def _normalise(weights: np.ndarray | None, size: int) -> np.ndarray:
        if weights is None:
            return np.full(size, 1.0 / size)
        if weights.size != size:
            raise ConfigurationError(f"expected {size} weights, got {weights.size}")
        return weights / weights.sum()

    def generate(
        self, platform: Platform, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        p_in = self._normalise(self._win, platform.num_ingress)
        p_out = self._normalise(self._wout, platform.num_egress)
        ingress = rng.choice(platform.num_ingress, size=n, p=p_in)
        egress = rng.choice(platform.num_egress, size=n, p=p_out)
        if self.exclude_same_index:
            clash = ingress == egress
            attempts = 0
            while np.any(clash):
                egress[clash] = rng.choice(platform.num_egress, size=int(clash.sum()), p=p_out)
                clash = ingress == egress
                attempts += 1
                if attempts > 10_000:
                    raise ConfigurationError(
                        "cannot draw distinct pairs: egress weights degenerate"
                    )
        return ingress.astype(np.int64), egress.astype(np.int64)
