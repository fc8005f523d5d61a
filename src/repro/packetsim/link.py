"""Round-based congestion simulation of one bottleneck link.

The session-level schedulers assume a granted rate is actually delivered.
§5.4 justifies that assumption experimentally (token-bucket pacing plus
drop enforcement on Grid'5000 hardware); this module reproduces the
argument in simulation: a drop-tail bottleneck shared by

- :class:`AimdFlow` — Reno-style additive-increase /
  multiplicative-decrease windows (one update per RTT round), and
- :class:`PacedFlow` — constant-rate senders modelling token-bucket-paced
  reserved transfers, optionally *protected* (their conforming traffic is
  never dropped — the access-point enforcement).

The simulator advances in fixed steps, fills a drop-tail queue with the
aggregate offered load, and signals loss back to the AIMD flows.  It is a
deliberately small fluid-window model — enough to show sawtooth
unpredictability vs reserved stability, not a packet-exact NS replica.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError

__all__ = ["AimdFlow", "PacedFlow", "BottleneckLink", "LinkSimulation", "LinkResult"]


@dataclass
class AimdFlow:
    """A Reno-like window-based sender.

    Rate is ``cwnd × mss / rtt``; each simulation step without loss adds
    ``mss / rtt`` worth of window per RTT (additive increase); a loss
    signal halves the window (multiplicative decrease).
    """

    rtt: float
    mss: float = 1460.0
    cwnd: float = 10.0  # in MSS

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ConfigurationError(f"rtt must be positive, got {self.rtt}")
        if self.mss <= 0 or self.cwnd <= 0:
            raise ConfigurationError("mss and cwnd must be positive")

    def rate(self) -> float:
        """Current sending rate in MB/s."""
        return self.cwnd * self.mss / self.rtt / 1e6

    def step(self, dt: float, lost: bool) -> None:
        """Advance one simulation step of length ``dt`` seconds."""
        if lost:
            self.cwnd = max(1.0, self.cwnd / 2.0)
        else:
            self.cwnd += dt / self.rtt  # +1 MSS per RTT


@dataclass
class PacedFlow:
    """A constant-rate sender: a token-bucket-paced reserved transfer."""

    reserved: float  # MB/s

    def __post_init__(self) -> None:
        if self.reserved <= 0:
            raise ConfigurationError(f"reserved rate must be positive, got {self.reserved}")

    def rate(self) -> float:
        """Offered rate in MB/s (always the reservation)."""
        return self.reserved

    def step(self, dt: float, lost: bool) -> None:
        """Pacing ignores loss: the shaper keeps the reserved rate."""


@dataclass
class BottleneckLink:
    """A drop-tail bottleneck: capacity in MB/s, buffer in MB."""

    capacity: float
    buffer: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {self.capacity}")
        if self.buffer < 0:
            raise ConfigurationError(f"buffer must be non-negative, got {self.buffer}")


@dataclass
class LinkResult:
    """Per-flow goodput series and aggregates."""

    times: np.ndarray
    goodput: np.ndarray  # shape (steps, flows), MB/s delivered per step
    labels: list[str]

    def mean_goodput(self) -> np.ndarray:
        """Time-averaged per-flow goodput (MB/s)."""
        return self.goodput.mean(axis=0)

    def goodput_std(self) -> np.ndarray:
        """Per-flow standard deviation of goodput over time — the paper's
        (un)predictability measure."""
        return self.goodput.std(axis=0)


class LinkSimulation:
    """Share a bottleneck among AIMD and (optionally protected) paced flows.

    Parameters
    ----------
    link:
        The bottleneck.
    flows:
        Any mix of :class:`AimdFlow` and :class:`PacedFlow`.
    protect_paced:
        With True (the §5.4 enforcement), conforming paced traffic is
        served first and never dropped; AIMD flows share the remainder.
        With False, everyone competes in the same drop-tail queue.
    dt:
        Step length, seconds.
    """

    def __init__(
        self,
        link: BottleneckLink,
        flows: list[AimdFlow | PacedFlow],
        *,
        protect_paced: bool = True,
        dt: float = 0.01,
    ) -> None:
        if not flows:
            raise ConfigurationError("need at least one flow")
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        paced_total = sum(f.reserved for f in flows if isinstance(f, PacedFlow))
        if protect_paced and paced_total > link.capacity * (1 + 1e-9):
            raise ConfigurationError(
                f"protected reservations ({paced_total}) exceed capacity ({link.capacity}); "
                "admission control must keep them within the link"
            )
        self.link = link
        self.flows = flows
        self.protect_paced = protect_paced
        self.dt = dt

    def run(self, duration: float, rng: np.random.Generator | None = None) -> LinkResult:
        """Simulate for ``duration`` seconds; returns the goodput series."""
        rng = rng or np.random.default_rng(0)
        steps = max(1, int(round(duration / self.dt)))
        n = len(self.flows)
        goodput = np.zeros((steps, n))
        times = np.arange(steps) * self.dt
        queue = 0.0

        paced_idx = [k for k, f in enumerate(self.flows) if isinstance(f, PacedFlow)]
        aimd_idx = [k for k, f in enumerate(self.flows) if isinstance(f, AimdFlow)]

        for step in range(steps):
            offered = np.array([f.rate() for f in self.flows])
            if self.protect_paced:
                paced_load = offered[paced_idx].sum() if paced_idx else 0.0
                # conforming reserved traffic goes through untouched
                for k in paced_idx:
                    goodput[step, k] = offered[k]
                residual_capacity = max(0.0, self.link.capacity - paced_load)
                contenders = aimd_idx
            else:
                residual_capacity = self.link.capacity
                contenders = list(range(n))

            demand = offered[contenders].sum() if contenders else 0.0
            arriving = demand * self.dt
            serviceable = residual_capacity * self.dt + max(0.0, self.link.buffer - queue)
            if arriving <= serviceable or demand == 0.0:
                delivered_fraction = 1.0
                queue = max(0.0, queue + arriving - residual_capacity * self.dt)
            else:
                delivered_fraction = serviceable / arriving
                queue = self.link.buffer

            lost_flows: set[int] = set()
            if delivered_fraction < 1.0 and contenders:
                # proportional loss; each contender sees a drop this round
                # with probability proportional to its share of the excess
                for k in contenders:
                    if isinstance(self.flows[k], AimdFlow):
                        p_loss = min(1.0, (1.0 - delivered_fraction) * 3.0)
                        if rng.random() < p_loss:
                            lost_flows.add(k)
            for k in contenders:
                goodput[step, k] = offered[k] * delivered_fraction
            for k, flow in enumerate(self.flows):
                flow.step(self.dt, lost=k in lost_flows)

        labels = [
            f"paced@{f.reserved:g}" if isinstance(f, PacedFlow) else f"aimd(rtt={f.rtt:g})"
            for f in self.flows
        ]
        return LinkResult(times=times, goodput=goodput, labels=labels)
