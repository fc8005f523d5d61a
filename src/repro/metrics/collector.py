"""Schedule evaluation: one call computing every metric a benchmark reports.

:func:`evaluate` combines the paper's objectives (§2.2–2.3) with the
engineering metrics the figures discuss — waiting time (response time of
interval-based scheduling), granted-rate quality, per-port balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.allocation import ScheduleResult
from ..core.capacity import utilisation
from ..core.objectives import (
    guaranteed_rate,
    resource_utilization,
    resource_utilization_time_averaged,
)
from ..core.problem import ProblemInstance

__all__ = ["MetricsReport", "evaluate", "jain_index"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n Σx²)``: 1 when perfectly even."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 1.0
    denom = arr.size * float(np.sum(arr * arr))
    if denom == 0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


@dataclass(frozen=True)
class MetricsReport:
    """All evaluation metrics for one (problem, schedule) pair."""

    scheduler: str
    num_requests: int
    accept_rate: float
    resource_utilization: float
    utilization_time_averaged: float
    guaranteed: dict[float, float]
    mean_wait: float
    max_wait: float
    mean_granted_over_max: float
    mean_transfer_duration: float
    port_jain_index: float


def evaluate(
    problem: ProblemInstance,
    result: ScheduleResult,
    *,
    fractions: Sequence[float] = (0.5, 0.8, 1.0),
) -> MetricsReport:
    """Compute the full metric set for a schedule."""
    requests = problem.requests
    allocations = list(result.accepted.values())

    waits = []
    granted_ratio = []
    durations = []
    for alloc in allocations:
        request = requests.by_rid(alloc.rid)
        waits.append(alloc.sigma - request.t_start)
        granted_ratio.append(alloc.bw / request.max_rate)
        durations.append(alloc.duration)

    ledger = result.build_ledger(problem.platform)
    t0, t1 = requests.time_span()
    if allocations and t1 > t0:
        port_utils = []
        for i in range(problem.platform.num_ingress):
            port_utils.append(
                utilisation(ledger.ingress_timeline(i), problem.platform.bin(i), t0, t1)
            )
        for e in range(problem.platform.num_egress):
            port_utils.append(
                utilisation(ledger.egress_timeline(e), problem.platform.bout(e), t0, t1)
            )
        port_fairness = jain_index(port_utils)
    else:
        port_fairness = 1.0

    return MetricsReport(
        scheduler=result.scheduler,
        num_requests=len(requests),
        accept_rate=result.accept_rate,
        resource_utilization=resource_utilization(problem.platform, requests, result),
        utilization_time_averaged=resource_utilization_time_averaged(
            problem.platform, requests, result
        ),
        guaranteed={f: guaranteed_rate(requests, result, f) for f in fractions},
        mean_wait=float(np.mean(waits)) if waits else 0.0,
        max_wait=float(np.max(waits)) if waits else 0.0,
        mean_granted_over_max=float(np.mean(granted_ratio)) if granted_ratio else 0.0,
        mean_transfer_duration=float(np.mean(durations)) if durations else 0.0,
        port_jain_index=port_fairness,
    )
