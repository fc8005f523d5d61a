"""Requested-rate distributions.

For flexible workloads the paper generates "bandwidth requests between
10 MB/s and 1 GB/s" (§5.3): the drawn rate is the user's requested
``MinRate`` and determines the deadline ``t_f = t_s + vol / MinRate``.  For
rigid workloads the drawn rate *is* the fixed ``bw(r)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError
from ..units import GBPS, MBPS

__all__ = ["RateDistribution", "UniformRates", "paper_rates"]


class RateDistribution(abc.ABC):
    """Generates per-request rates in MB/s."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` positive rates (MB/s)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected rate in MB/s (used for load calibration)."""


@dataclass(frozen=True)
class UniformRates(RateDistribution):
    """Uniform rates over ``[low, high]`` MB/s."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ConfigurationError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


def paper_rates() -> UniformRates:
    """The §5.3 requested-rate distribution: uniform on [10 MB/s, 1 GB/s]."""
    return UniformRates(10 * MBPS, GBPS)
