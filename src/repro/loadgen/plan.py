"""Seeded submission plans drawn from the :mod:`repro.workload` families.

The harness reuses the paper's workload machinery wholesale — arrival
processes, volume/duration distributions, port-pair selectors — so a
load run exercises the service with the *same* statistical shape as the
simulation experiments, and two runs with the same seed submit the same
bodies in the same order.

A plan is position-addressable: client ``i`` of ``c`` walks positions
``i, i+c, i+2c, ...`` so the fleet collectively covers the plan exactly
once per cycle, without coordination.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.errors import ConfigurationError
from ..core.platform import Platform
from ..workload import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    SinusoidalArrivals,
    UniformPairs,
    paper_durations,
)
from ..workload.durations import DurationDistribution
from ..workload.matrix import PairSelector
from ..workload.volumes import PaperVolumes, VolumeDistribution

__all__ = ["SubmissionPlan", "arrival_process"]


def arrival_process(shape: str, mean_interarrival: float) -> ArrivalProcess:
    """The named arrival shape at the given mean inter-arrival time."""
    if mean_interarrival <= 0:
        raise ConfigurationError(
            f"mean interarrival must be positive, got {mean_interarrival}"
        )
    if shape == "poisson":
        return PoissonArrivals(mean_interarrival)
    if shape == "uniform":
        return DeterministicArrivals(mean_interarrival)
    if shape == "sinusoid":
        return SinusoidalArrivals(mean_interarrival)
    raise ConfigurationError(f"unknown arrival shape {shape!r}")


class SubmissionPlan:
    """A fixed, seeded sequence of HTTP submission bodies.

    ``deadline_floor`` guards live runs: the service decides a wave at a
    clock reading *past* the drawn arrival, so every window gets this
    much slack beyond its bottleneck-feasible length — a knife-edge
    window would otherwise flip from valid to infeasible between the
    client's draw and the wave flush.
    """

    def __init__(
        self,
        platform: Platform,
        n: int,
        *,
        seed: int = 0,
        shape: str = "poisson",
        mean_interarrival: float = 1.0,
        volumes: VolumeDistribution | None = None,
        durations: DurationDistribution | None = None,
        pairs: PairSelector | None = None,
        deadline_floor: float = 600.0,
    ) -> None:
        if n <= 0:
            raise ConfigurationError(f"plan needs a positive size, got {n}")
        self.platform = platform
        self.seed = seed
        self.shape = shape
        rng = np.random.default_rng(seed)
        arrivals = arrival_process(shape, mean_interarrival)
        t_start = arrivals.generate(n, rng)
        volume = (volumes or PaperVolumes()).generate(n, rng)
        duration = (durations or paper_durations()).generate(n, rng)
        ingress, egress = (pairs or UniformPairs()).generate(platform, n, rng)
        cap = np.minimum(
            platform.ingress_capacity[ingress], platform.egress_capacity[egress]
        )
        # A window shorter than the fastest feasible transfer can never be
        # admitted, and one *exactly* at the feasibility limit flips to
        # infeasible when the frontier flushes its wave a few (simulated)
        # seconds after the drawn arrival — so the floor is added on top
        # of the bottleneck transfer time, never absorbed by it.
        duration = np.maximum(duration, volume / cap) + deadline_floor
        self._bodies: list[dict[str, Any]] = [
            {
                "ingress": int(ingress[i]),
                "egress": int(egress[i]),
                "volume": float(volume[i]),
                "at": float(t_start[i]),
                "deadline": float(t_start[i] + duration[i]),
            }
            for i in range(n)
        ]

    def __len__(self) -> int:
        return len(self._bodies)

    def body(self, position: int) -> dict[str, Any]:
        """The submission at ``position`` (cycling past the end)."""
        return dict(self._bodies[position % len(self._bodies)])
