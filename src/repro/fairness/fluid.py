"""Fluid simulation of statistical bandwidth sharing.

Models what happens when the same bulk transfer workload is *not* admission
controlled but shares the ingress/egress bottlenecks max-min fairly — the
session-level idealisation of TCP the paper argues against (§1, §5.3): in
overload every flow's share collapses, transfers overshoot their windows,
and (with ``drop_at_deadline``) fail outright after having consumed
capacity.

Between consecutive events (arrival, completion, deadline expiry) the
active flow set is constant, so rates are piecewise constant: the simulator
re-solves :func:`repro.fairness.maxmin.maxmin_rates` at each event and
advances remaining volumes linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import InternalInvariantError
from ..core.problem import ProblemInstance
from .maxmin import maxmin_rates

__all__ = ["FlowOutcome", "FluidResult", "FluidSimulation"]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class FlowOutcome:
    """Fate of one flow under statistical sharing."""

    rid: int
    arrival: float
    deadline: float
    volume: float
    transferred: float
    completion: float | None
    dropped: bool

    @property
    def completed(self) -> bool:
        """Did the flow deliver its full volume?"""
        return self.completion is not None

    @property
    def met_deadline(self) -> bool:
        """Did it deliver the full volume within its requested window?"""
        return self.completion is not None and self.completion <= self.deadline * (1 + 1e-12)

    @property
    def slowdown(self) -> float:
        """Actual duration over the requested window length (≥ values > 1
        mean the transfer overshot its window); ``inf`` when unfinished."""
        if self.completion is None:
            return math.inf
        return (self.completion - self.arrival) / (self.deadline - self.arrival)


@dataclass
class FluidResult:
    """Aggregate outcome of a fluid simulation."""

    outcomes: dict[int, FlowOutcome] = field(default_factory=dict)
    horizon: float = 0.0

    @property
    def deadline_met_rate(self) -> float:
        """Fraction of flows that finished within their window — the
        number to compare against a reservation scheduler's accept rate
        (every *accepted* reservation finishes on time by construction)."""
        if not self.outcomes:
            return 0.0
        return sum(o.met_deadline for o in self.outcomes.values()) / len(self.outcomes)

    @property
    def dropped_rate(self) -> float:
        """Fraction of flows killed at their deadline (drop mode)."""
        if not self.outcomes:
            return 0.0
        return sum(o.dropped for o in self.outcomes.values()) / len(self.outcomes)

    @property
    def wasted_volume(self) -> float:
        """MB carried for flows that never completed — capacity spent on
        transfers that ultimately failed (the paper's reliability argument)."""
        return sum(o.transferred for o in self.outcomes.values() if not o.completed)

    @property
    def mean_slowdown(self) -> float:
        """Mean slowdown over completed flows; 0 when none completed."""
        finished = [o.slowdown for o in self.outcomes.values() if o.completed]
        return float(np.mean(finished)) if finished else 0.0


class FluidSimulation:
    """Max-min fluid sharing of a flexible-request workload.

    Parameters
    ----------
    problem:
        The same instance a reservation scheduler would consume; each
        request becomes a flow arriving at ``t_s`` wanting ``vol`` at up to
        ``MaxRate``.
    drop_at_deadline:
        When True, a flow still unfinished at ``t_f`` is killed (its
        transferred volume is wasted) — modelling transfers whose grid
        resources are reclaimed.  When False (default) flows linger until
        completion, dragging down everyone's share.
    max_events:
        Safety valve against pathological event loops.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        *,
        drop_at_deadline: bool = False,
        max_events: int | None = None,
    ) -> None:
        self.problem = problem
        self.drop_at_deadline = drop_at_deadline
        self.max_events = max_events if max_events is not None else 20 * max(1, problem.num_requests) + 100

    def run(self) -> FluidResult:
        """Simulate to completion and return per-flow outcomes."""
        requests = sorted(self.problem.requests, key=lambda r: (r.t_start, r.rid))
        result = FluidResult()
        if not requests:
            return result
        platform = self.problem.platform

        cursor = 0
        # Active flow state, parallel lists (rebuilt as numpy views per step).
        act_rid: list[int] = []
        act_in: list[int] = []
        act_out: list[int] = []
        act_max: list[float] = []
        act_remaining: list[float] = []
        act_deadline: list[float] = []
        transferred: dict[int, float] = {}
        arrival_of: dict[int, float] = {}

        t = requests[0].t_start
        events = 0
        while cursor < len(requests) or act_rid:
            events += 1
            if events > self.max_events:
                raise RuntimeError(f"fluid simulation exceeded {self.max_events} events")

            rates = maxmin_rates(
                platform,
                np.asarray(act_in, dtype=np.int64),
                np.asarray(act_out, dtype=np.int64),
                np.asarray(act_max) if act_rid else None,
            )

            next_arrival = requests[cursor].t_start if cursor < len(requests) else math.inf
            if act_rid:
                remaining = np.asarray(act_remaining)
                with np.errstate(divide="ignore"):
                    finish = t + np.where(rates > 0, remaining / np.maximum(rates, _EPS), math.inf)
                next_completion = float(finish.min())
            else:
                next_completion = math.inf
            next_drop = min(act_deadline) if (self.drop_at_deadline and act_rid) else math.inf

            t_next = min(next_arrival, next_completion, next_drop)
            if not math.isfinite(t_next):
                raise InternalInvariantError(
                    "event horizon must be finite while flows are active"
                )

            # Advance transfers to t_next.
            if act_rid and t_next > t:
                progress = rates * (t_next - t)
                for k in range(len(act_rid)):
                    act_remaining[k] = max(0.0, act_remaining[k] - float(progress[k]))
                    transferred[act_rid[k]] += float(progress[k])
            t = t_next

            # Completions (and deadline drops) at time t.
            keep = []
            for k in range(len(act_rid)):
                rid = act_rid[k]
                request_volume = transferred[rid] + act_remaining[k]
                if act_remaining[k] <= _EPS * request_volume:
                    result.outcomes[rid] = FlowOutcome(
                        rid=rid,
                        arrival=arrival_of[rid],
                        deadline=act_deadline[k],
                        volume=request_volume,
                        transferred=transferred[rid],
                        completion=t,
                        dropped=False,
                    )
                elif self.drop_at_deadline and act_deadline[k] <= t * (1 + 1e-12):
                    result.outcomes[rid] = FlowOutcome(
                        rid=rid,
                        arrival=arrival_of[rid],
                        deadline=act_deadline[k],
                        volume=request_volume,
                        transferred=transferred[rid],
                        completion=None,
                        dropped=True,
                    )
                else:
                    keep.append(k)
            if len(keep) != len(act_rid):
                act_rid = [act_rid[k] for k in keep]
                act_in = [act_in[k] for k in keep]
                act_out = [act_out[k] for k in keep]
                act_max = [act_max[k] for k in keep]
                act_remaining = [act_remaining[k] for k in keep]
                act_deadline = [act_deadline[k] for k in keep]

            # Arrivals at time t.
            while cursor < len(requests) and requests[cursor].t_start <= t * (1 + 1e-12):
                request = requests[cursor]
                cursor += 1
                act_rid.append(request.rid)
                act_in.append(request.ingress)
                act_out.append(request.egress)
                act_max.append(request.max_rate)
                act_remaining.append(request.volume)
                act_deadline.append(request.t_end)
                transferred[request.rid] = 0.0
                arrival_of[request.rid] = request.t_start

        result.horizon = t
        return result
