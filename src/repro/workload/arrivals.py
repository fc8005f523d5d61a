"""Arrival processes.

The paper's workloads arrive "according to a Poisson distribution" (§2.1):
exponential inter-arrival times whose mean is the knob the published sweeps
turn (0.1–5 s in the heavy-load experiments, 3–20 s in the underloaded
ones).  Deterministic and sinusoidally modulated processes are provided
for tests and for load that varies over the day.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "SinusoidalArrivals",
]


class ArrivalProcess(abc.ABC):
    """Generates a sorted array of arrival times."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
        """Return ``n`` non-decreasing arrival times starting at or after ``t0``."""

    @abc.abstractmethod
    def mean_interarrival(self) -> float:
        """Expected gap between consecutive arrivals (``inf`` if undefined)."""

    def rate(self) -> float:
        """Expected arrivals per second."""
        mean = self.mean_interarrival()
        return 1.0 / mean if mean > 0 else float("inf")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson process with the given mean inter-arrival time (seconds)."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"mean inter-arrival must be positive, got {self.mean}")

    def generate(self, n: int, rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
        gaps = rng.exponential(self.mean, size=n)
        return t0 + np.cumsum(gaps)

    def mean_interarrival(self) -> float:
        return self.mean


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals — a variance-free stand-in for tests."""

    interval: float

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {self.interval}")

    def generate(self, n: int, rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
        return t0 + self.interval * np.arange(1, n + 1, dtype=np.float64)

    def mean_interarrival(self) -> float:
        return self.interval


@dataclass(frozen=True)
class SinusoidalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with a diurnal (sinusoidal) rate.

    Grid workloads are day/night cyclic; the intensity is
    ``λ(t) = (1 + amplitude · sin(2πt / period)) / mean`` and arrivals are
    generated by Lewis–Shedler thinning.  ``amplitude = 0`` recovers the
    homogeneous process.
    """

    mean: float
    amplitude: float = 0.5
    period: float = 86400.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"mean inter-arrival must be positive, got {self.mean}")
        if not (0.0 <= self.amplitude < 1.0):
            raise ConfigurationError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")

    def intensity(self, t: float) -> float:
        """Instantaneous arrival rate λ(t)."""
        return (1.0 + self.amplitude * np.sin(2 * np.pi * t / self.period)) / self.mean

    def generate(self, n: int, rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
        lam_max = (1.0 + self.amplitude) / self.mean
        times = np.empty(n, dtype=np.float64)
        t = t0
        filled = 0
        while filled < n:
            t += rng.exponential(1.0 / lam_max)
            if rng.random() * lam_max <= self.intensity(t):
                times[filled] = t
                filled += 1
        return times

    def mean_interarrival(self) -> float:
        return self.mean
