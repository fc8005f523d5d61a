"""Transmission-window duration distributions for rigid workloads.

The §4.3 rigid experiments draw volumes from a fixed set and give each
request a transmission window; the fixed rate follows as ``bw = vol /
duration``.  Durations are drawn *independently* of volume — this is what
makes MINVOL-SLOTS pathological (a small-volume request with a small window
demands a huge bandwidth; §4.4 explains MINVOL's losses exactly this way).
Transfers span "a couple of minutes to about one day" (§5.3), which
:func:`paper_durations` reproduces as a log-uniform draw.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError
from ..units import DAY, MINUTE

__all__ = [
    "DurationDistribution",
    "UniformDurations",
    "LogUniformDurations",
    "paper_durations",
]


class DurationDistribution(abc.ABC):
    """Generates per-request window durations in seconds."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` positive durations (seconds)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected duration in seconds."""


@dataclass(frozen=True)
class UniformDurations(DurationDistribution):
    """Uniform durations over ``[low, high]`` seconds."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ConfigurationError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class LogUniformDurations(DurationDistribution):
    """Log-uniform durations over ``[low, high]`` seconds — mixes short and
    day-long windows without the long tail dominating."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ConfigurationError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(rng.uniform(np.log(self.low), np.log(self.high), size=n))

    def mean(self) -> float:
        if self.low == self.high:
            return self.low
        span = np.log(self.high) - np.log(self.low)
        return float((self.high - self.low) / span)


def paper_durations() -> LogUniformDurations:
    """Windows log-uniform between 2 minutes and 1 day (§5.3's range)."""
    return LogUniformDurations(2 * MINUTE, DAY)
