"""Load definition and calibration (paper §4.3).

The paper defines the system load as the ratio of demanded to available
bandwidth,

.. math::

    load = \\frac{\\sum_r bw(r)}{\\tfrac12(\\sum_i B_{in}(i) + \\sum_e B_{out}(e))}

and steers it through the Poisson arrival rate.  In steady state, a Poisson
process with rate λ offering transfers of mean volume E[vol] demands
``λ · E[vol]`` MB/s in expectation (Little's law: concurrent demanded
bandwidth = arrival rate × mean volume, since ``bw × duration = vol``).
:func:`arrival_rate_for_load` inverts that relation so experiments can sweep
a *target* load directly.
"""

from __future__ import annotations

from ..core.platform import Platform
from ..core.request import RequestSet

__all__ = [
    "arrival_rate_for_load",
    "mean_interarrival_for_load",
    "empirical_load",
]


def arrival_rate_for_load(platform: Platform, target_load: float, mean_volume: float) -> float:
    """Arrival rate λ achieving ``target_load`` for the given mean volume."""
    if target_load <= 0:
        raise ValueError(f"target load must be positive, got {target_load}")
    if mean_volume <= 0:
        raise ValueError(f"mean volume must be positive, got {mean_volume}")
    return target_load * platform.half_capacity / mean_volume


def mean_interarrival_for_load(platform: Platform, target_load: float, mean_volume: float) -> float:
    """Mean inter-arrival time achieving ``target_load``."""
    return 1.0 / arrival_rate_for_load(platform, target_load, mean_volume)


def empirical_load(platform: Platform, requests: RequestSet) -> float:
    """Measured time-average of concurrent demanded bandwidth over capacity.

    Integrates ``MinRate`` over each request's window and divides by
    ``half_capacity × horizon`` — the realised counterpart of the load
    :func:`arrival_rate_for_load` targets, for a concrete request set.
    """
    if not len(requests):
        return 0.0
    t0, t1 = requests.time_span()
    horizon = t1 - t0
    if horizon <= 0:
        return 0.0
    demanded_volume = requests.total_volume()  # ∫ MinRate over window = vol
    return (demanded_volume / horizon) / platform.half_capacity
