"""Transfer volume distributions.

The paper draws volumes "randomly chosen from a set of values:
{10GB, 20GB, …, 90GB, 100GB, 200GB, …, 900GB, 1TB}" (§4.3; the published
text garbles the first element, the intended set is the two decades plus
1 TB).  :func:`paper_volume_set` reproduces that set; alternative
distributions are provided for sensitivity studies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..units import GB, TB

__all__ = [
    "VolumeDistribution",
    "ChoiceVolumes",
    "UniformVolumes",
    "paper_volume_set",
    "PaperVolumes",
]


def paper_volume_set() -> np.ndarray:
    """The §4.3 volume set in MB: 10–90 GB by 10, 100–900 GB by 100, 1 TB."""
    decade1 = np.arange(10, 100, 10, dtype=np.float64) * GB
    decade2 = np.arange(100, 1000, 100, dtype=np.float64) * GB
    return np.concatenate([decade1, decade2, [TB]])


class VolumeDistribution(abc.ABC):
    """Generates per-request volumes in MB."""

    @abc.abstractmethod
    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` positive volumes (MB)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected volume in MB (used for load calibration)."""


@dataclass(frozen=True)
class ChoiceVolumes(VolumeDistribution):
    """Uniform choice from a finite set of volumes."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]) -> None:
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ConfigurationError("need at least one volume value")
        if any(v <= 0 for v in vals):
            raise ConfigurationError("volumes must be positive")
        object.__setattr__(self, "values", vals)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(np.asarray(self.values), size=n)

    def mean(self) -> float:
        return float(np.mean(self.values))


def PaperVolumes() -> ChoiceVolumes:
    """The published §4.3 volume distribution."""
    return ChoiceVolumes(paper_volume_set())


@dataclass(frozen=True)
class UniformVolumes(VolumeDistribution):
    """Uniform volumes over ``[low, high]`` MB."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0 < self.low <= self.high):
            raise ConfigurationError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)
