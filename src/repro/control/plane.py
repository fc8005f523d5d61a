"""Distributed admission control over the overlay control plane (§5.4).

Implements the paper's deployment story as a simulation: reservation
requests are submitted to the client's **ingress access router**, which
probes the egress router over the overlay (one-way signalling latency
``latency``), and answers the client directly with a scheduled window and
rate.  A two-phase hold/commit protocol keeps concurrent reservations from
over-committing a port that two in-flight requests both saw as free.

With ``latency = 0`` the plane degenerates to Algorithm 2 (GREEDY): every
decision happens at the arrival instant against exact global state — the
integration tests assert this equivalence.  With positive latency, accepted
transfers start ``2 × latency`` after arrival and the accept rate dips
slightly (held bandwidth is pessimistic), quantifying the signalling cost
of distributing the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.allocation import Allocation, ScheduleResult
from ..core.errors import ConfigurationError
from ..core.problem import ProblemInstance
from ..core.request import Request
from ..schedulers.policies import BandwidthPolicy, MinRatePolicy
from ..sim.engine import Simulator
from .messages import MessageType, ReservationMessage
from .router import PortAgent

__all__ = ["ControlPlane"]


@dataclass
class ControlPlane:
    """Two-phase distributed admission over simulated signalling.

    Parameters
    ----------
    policy:
        Bandwidth assignment policy (as for the centralized heuristics).
    latency:
        One-way message latency between overlay routers, seconds.
    """

    policy: BandwidthPolicy = field(default_factory=MinRatePolicy)
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError(f"latency must be non-negative, got {self.latency}")
        self.name = f"control-plane[{self.latency:g}s,{self.policy.name}]"

    # ------------------------------------------------------------------
    def schedule(self, problem: ProblemInstance) -> ScheduleResult:
        """Run the signalling simulation over all requests of ``problem``."""
        platform = problem.platform
        result = ScheduleResult(
            scheduler=self.name,
            meta={"latency": self.latency, "policy": self.policy.name, "messages": 0},
        )
        sim = Simulator()
        ingress_agents = [PortAgent(platform.bin(i)) for i in range(platform.num_ingress)]
        egress_agents = [PortAgent(platform.bout(e)) for e in range(platform.num_egress)]

        def send(message: ReservationMessage, handler) -> None:
            result.meta["messages"] += 1
            sim.after(self.latency, handler, payload=message)

        def on_arrival(event) -> None:
            request: Request = event.payload
            # The rate is asked from the estimated start, so the transfer still
            # meets t_f despite starting 2 × latency late (or is rejected).
            sigma_est = sim.now + 2 * self.latency
            bw = self.policy.rate(request.volume, request.t_end, request.max_rate, sigma_est)
            agent = ingress_agents[request.ingress]
            if bw is None:
                result.reject(request.rid, "deadline")
                return
            if not agent.hold(sim.now, bw):
                result.reject(request.rid, "ingress-capacity")
                return
            send(
                ReservationMessage(MessageType.PROBE, request.rid, request.ingress, request.egress, bw),
                lambda e, request=request: on_probe(e, request),
            )

        def on_probe(event, request: Request) -> None:
            message: ReservationMessage = event.payload
            agent = egress_agents[message.dst]
            ok = agent.hold(sim.now, message.bw)
            send(
                ReservationMessage(
                    MessageType.PROBE_REPLY, message.rid, message.dst, message.src, message.bw, ok=ok
                ),
                lambda e, request=request: on_reply(e, request),
            )

        def on_reply(event, request: Request) -> None:
            message: ReservationMessage = event.payload
            ingress_agent = ingress_agents[request.ingress]
            if not message.ok:
                ingress_agent.unhold(message.bw)
                result.reject(request.rid, "egress-capacity")
                return
            sigma = sim.now
            tau = sigma + request.volume / message.bw
            ingress_agent.commit(message.bw, release_at=tau)
            result.accept(Allocation.for_request(request, message.bw, sigma=sigma))
            send(
                ReservationMessage(MessageType.COMMIT, request.rid, request.ingress, request.egress, message.bw),
                lambda e, tau=tau: on_commit(e, tau),
            )

        def on_commit(event, tau: float) -> None:
            message: ReservationMessage = event.payload
            # The egress learns of the commit latency late; it keeps the
            # bandwidth until the transfer's actual end (or now, whichever
            # is later — a transfer shorter than the one-way latency has
            # already finished).
            egress_agents[message.dst].commit(message.bw, release_at=max(tau, sim.now))

        for request in problem.requests.sorted_by_arrival():
            sim.at(request.t_start, on_arrival, payload=request)
        sim.run()
        return result
