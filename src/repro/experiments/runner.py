"""Seeded, replicated experiment execution.

Every published number in EXPERIMENTS.md is a mean over independent seeded
replications; :func:`replicate` is the one place that loop lives, so every
figure definition stays declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

__all__ = ["Aggregate", "replicate"]


@dataclass(frozen=True, slots=True)
class Aggregate:
    """Mean and standard deviation of one metric over replications."""

    mean: float
    std: float
    n: int

    def __format__(self, spec: str) -> str:
        return f"{format(self.mean, spec or '.3f')}±{format(self.std, spec or '.3f')}"


def replicate(
    run: Callable[[int], Mapping[str, float]],
    seeds: Sequence[int],
) -> dict[str, Aggregate]:
    """Run ``run(seed)`` for every seed and aggregate each metric.

    ``run`` returns a flat ``{metric name: value}`` mapping; all
    replications must produce the same keys.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    samples: dict[str, list[float]] = {}
    keys: set[str] | None = None
    for seed in seeds:
        metrics = dict(run(int(seed)))
        if keys is None:
            keys = set(metrics)
            for key in keys:
                samples[key] = []
        elif set(metrics) != keys:
            raise ValueError(
                f"replication with seed {seed} produced keys {sorted(metrics)} != {sorted(keys)}"
            )
        for key, value in metrics.items():
            samples[key].append(float(value))
    return {
        key: Aggregate(
            mean=float(np.mean(values)),
            std=float(np.std(values)),
            n=len(values),
        )
        for key, values in samples.items()
    }
