"""Optimisation objectives and evaluation metrics (paper §2.2–2.3).

Implements the three published objectives:

- **MAX-REQUESTS** — the accept rate, ``Σ x_k / K``;
- **RESOURCE-UTIL** — granted bandwidth over *scaled* port capacity, where a
  port with no demand is excluded from the denominator;
- **#guaranteed(f)** — accepted requests whose granted rate reaches
  ``max(f × MaxRate, MinRate)`` (the tuning-factor refinement, §2.3).

It also provides a *time-averaged* utilisation (volume actually carried over
capacity × horizon), which the paper's instantaneous formula approximates.
"""

from __future__ import annotations

from .allocation import ScheduleResult
from .platform import Platform
from .request import Request, RequestSet

__all__ = [
    "resource_utilization",
    "guaranteed_count",
    "guaranteed_rate",
    "demanded_bandwidth",
]


def demanded_bandwidth(request: Request) -> float:
    """The bandwidth a request *demands* for the purposes of scaling.

    For rigid requests this is the fixed ``bw(r)``; for flexible requests the
    paper's formulas predate an assignment, so the requested ``MinRate`` is
    used — the rate the user asked for.
    """
    return request.min_rate


def resource_utilization(
    platform: Platform,
    requests: RequestSet,
    result: ScheduleResult,
) -> float:
    """The paper's RESOURCE-UTIL objective (§2.2).

    .. math::

        \\frac{\\sum_k x_k\\, bw(r_k)}
              {\\tfrac12\\left(\\sum_i B_{in}^{scaled}(i) +
                              \\sum_e B_{out}^{scaled}(e)\\right)}

    where ``B^{scaled}`` caps each port's capacity at the total bandwidth
    demanded from it, so idle ports do not dilute the ratio.  The factor ½
    compensates for each granted request being counted at both its ingress
    and its egress.
    """
    import numpy as np

    m = platform.num_ingress
    n = platform.num_egress
    demand_in = np.zeros(m)
    demand_out = np.zeros(n)
    for request in requests:
        bw = demanded_bandwidth(request)
        demand_in[request.ingress] += bw
        demand_out[request.egress] += bw

    scaled_in = np.minimum(platform.ingress_capacity, demand_in)
    scaled_out = np.minimum(platform.egress_capacity, demand_out)
    denominator = 0.5 * (scaled_in.sum() + scaled_out.sum())
    if denominator <= 0:
        return 0.0

    granted = sum(alloc.bw for alloc in result.accepted.values())
    return float(granted / denominator)


def resource_utilization_time_averaged(
    platform: Platform,
    requests: RequestSet,
    result: ScheduleResult,
) -> float:
    """RESOURCE-UTIL integrated over the demand horizon.

    The paper's instantaneous formula is only normalised when the requests
    in ``R`` largely overlap; over a long trace it grows with ``K``.  This
    variant divides the capacity-time actually granted,
    ``Σ_accepted vol(r)``, by the scaled capacity times the demand horizon
    ``[min t_s, max t_f]`` — a value in [0, 1] directly comparable to the
    utilisation axis of Figure 4.
    """
    import numpy as np

    if not len(requests):
        return 0.0
    t0, t1 = requests.time_span()
    horizon = t1 - t0
    if horizon <= 0:
        return 0.0

    demand_in = np.zeros(platform.num_ingress)
    demand_out = np.zeros(platform.num_egress)
    for request in requests:
        bw = demanded_bandwidth(request)
        demand_in[request.ingress] += bw
        demand_out[request.egress] += bw
    scaled_in = np.minimum(platform.ingress_capacity, demand_in)
    scaled_out = np.minimum(platform.egress_capacity, demand_out)
    denominator = 0.5 * (scaled_in.sum() + scaled_out.sum()) * horizon
    if denominator <= 0:
        return 0.0

    granted_volume = sum(
        requests.by_rid(rid).volume for rid in result.accepted
    )
    return float(granted_volume / denominator)


def guaranteed_count(
    requests: RequestSet,
    result: ScheduleResult,
    f: float,
    *,
    rtol: float = 1e-9,
) -> int:
    """``#guaranteed``: accepted requests granted at least
    ``max(f × MaxRate, MinRate)`` (paper §2.3)."""
    count = 0
    for rid, alloc in result.accepted.items():
        request = requests.by_rid(rid)
        threshold = max(f * request.max_rate, request.min_rate)
        if alloc.bw >= threshold * (1 - rtol):
            count += 1
    return count


def guaranteed_rate(
    requests: RequestSet,
    result: ScheduleResult,
    f: float,
) -> float:
    """``#guaranteed`` normalised by the total number of requests."""
    total = len(requests)
    return guaranteed_count(requests, result, f) / total if total else 0.0
