"""Steady-state TCP throughput models (§1's motivation, §5.4's protocols).

The paper's case for reservations starts from TCP's behaviour on large
bandwidth-delay-product grid paths: loss-based congestion control
penalises long-RTT bulk flows, producing unpredictable and unfair shares
[21].  This module implements the standard analytic models used to make
that argument quantitative:

- :class:`ResponseFunction` — the generic ``B = c · MSS / (RTT^a · p^b)``
  family, with presets for Reno (:data:`RENO`, the Mathis et al.
  square-root law ``B = MSS/RTT · sqrt(3/2) / sqrt(p)``) and BIC-like
  high-speed variants, enough to reproduce the RTT-unfairness shape §5.4
  alludes to;
- :func:`rtt_unfairness` — the spread of those shares across RTTs.

All throughputs are returned in MB/s for an MSS given in bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError

__all__ = [
    "ResponseFunction",
    "RENO",
    "BIC_LIKE",
    "rtt_unfairness",
]

_BYTES_PER_MB = 1e6


def _validate(mss: float, rtt: float, loss: float) -> None:
    if mss <= 0:
        raise ConfigurationError(f"MSS must be positive, got {mss}")
    if rtt <= 0:
        raise ConfigurationError(f"RTT must be positive, got {rtt}")
    if not (0 < loss < 1):
        raise ConfigurationError(f"loss rate must be in (0, 1), got {loss}")


@dataclass(frozen=True)
class ResponseFunction:
    """The generic loss-response family ``B = c · MSS / (RTT^a · p^b)``.

    High-speed TCP variants (BIC, HSTCP, …) are commonly summarised by
    their response function exponents; ``rtt_exp`` below 1 means less
    RTT-unfairness than Reno.
    """

    name: str
    c: float
    rtt_exp: float
    loss_exp: float

    def throughput(self, mss: float, rtt: float, loss: float) -> float:
        """Steady-state throughput in MB/s."""
        _validate(mss, rtt, loss)
        return self.c * mss / (rtt**self.rtt_exp * loss**self.loss_exp) / _BYTES_PER_MB


#: Reno's response function (the Mathis constant).
RENO = ResponseFunction("reno", c=math.sqrt(1.5), rtt_exp=1.0, loss_exp=0.5)

#: A BIC-like high-speed response: aggressive in loss, less RTT-sensitive.
#: (Qualitative preset — BIC's exact response function is regime-dependent.)
BIC_LIKE = ResponseFunction("bic-like", c=1.1, rtt_exp=0.8, loss_exp=0.69)


def rtt_unfairness(
    model: ResponseFunction,
    rtts: np.ndarray,
    mss: float = 1460.0,
    loss: float = 1e-4,
) -> np.ndarray:
    """Relative shares of same-bottleneck flows with different RTTs.

    Returns each flow's throughput normalised by the best flow's — the
    shape of §1's complaint: under loss-based sharing a transcontinental
    grid flow is starved relative to a metro one, while a reservation
    gives both exactly their granted rate.
    """
    rtts = np.asarray(rtts, dtype=np.float64)
    if np.any(rtts <= 0):
        raise ConfigurationError("RTTs must be positive")
    rates = np.array([model.throughput(mss, float(r), loss) for r in rtts])
    return rates / rates.max()
