"""Grid jobs: CPU + data-transfer co-allocation (§2.3).

The paper's whole case for the tuning factor is a *grid computing*
argument: "the completion time of typical datagrid applications is given
by the sum of the execution time and of the time taken to transfer the
data" and a transfer served faster "implies the earlier release of
computing and storage resources".  This module supplies that missing
layer: jobs that stage data in over the network and then hold CPUs at the
destination site.

A :class:`GridJob` bundles a transfer request with a CPU demand; the
:class:`JobSimulator` admits transfers through any bandwidth scheduler,
then replays CPU occupancy: a job's processors are *reserved from its
submission* (the co-allocation the paper assumes — CPUs are scheduled
first, §1) and released when staging + compute finish.  Granting more
bandwidth shortens the CPU hold, which is exactly the effect the tuning
factor trades against accept rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

import numpy as np

from ..core.allocation import ScheduleResult
from ..core.errors import ConfigurationError, InternalInvariantError, InvalidRequestError
from ..core.problem import ProblemInstance
from ..core.request import Request, RequestSet
from ..schedulers.base import Scheduler

__all__ = ["GridJob", "JobOutcome", "JobSimulationResult", "JobSimulator"]


@dataclass(frozen=True, slots=True)
class GridJob:
    """A compute job that must stage its input data first.

    Attributes
    ----------
    request:
        The staging transfer (the job runs at the *egress* site).
    cpus:
        Processors held at the destination site.
    cpu_time:
        Compute duration once the data has landed, seconds.
    """

    request: Request
    cpus: int
    cpu_time: float

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise InvalidRequestError(f"job {self.request.rid}: needs at least one CPU")
        if self.cpu_time <= 0:
            raise InvalidRequestError(f"job {self.request.rid}: cpu_time must be positive")

    @property
    def rid(self) -> int:
        """Identifier shared with the staging request."""
        return self.request.rid


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """Fate of one job."""

    rid: int
    admitted: bool
    staged_at: float | None
    finished_at: float | None
    cpu_seconds_held: float

    @property
    def completed(self) -> bool:
        """Did the job run (its transfer was admitted)?"""
        return self.finished_at is not None


@dataclass
class JobSimulationResult:
    """Aggregate outcome of co-allocating a job batch."""

    outcomes: dict[int, JobOutcome] = field(default_factory=dict)
    schedule: ScheduleResult | None = None

    @property
    def completed_rate(self) -> float:
        """Fraction of jobs that ran."""
        if not self.outcomes:
            return 0.0
        return sum(o.completed for o in self.outcomes.values()) / len(self.outcomes)

    @property
    def total_cpu_seconds(self) -> float:
        """CPU·seconds held across all admitted jobs (reservation + run)."""
        return sum(o.cpu_seconds_held for o in self.outcomes.values())

    def cpu_seconds_per_job(self) -> float:
        """Mean CPU·seconds per completed job — lower is better (less CPU
        time wasted waiting for data)."""
        done = [o.cpu_seconds_held for o in self.outcomes.values() if o.completed]
        return float(np.mean(done)) if done else 0.0

    def mean_completion_time(self) -> float:
        """Mean submission→finish latency over completed jobs."""
        done = [
            o.finished_at - self._submission(o.rid)
            for o in self.outcomes.values()
            if o.finished_at is not None
        ]
        return float(np.mean(done)) if done else 0.0

    def _submission(self, rid: int) -> float:
        if rid not in self._submissions:
            raise InternalInvariantError(
                f"outcome for job {rid} exists but its submission time was never recorded"
            )
        return self._submissions[rid]

    # filled by the simulator
    _submissions: dict[int, float] = field(default_factory=dict)


class JobSimulator:
    """Co-allocate a batch of grid jobs through a bandwidth scheduler.

    The CPU model follows the paper's framing: processors are allocated
    before the transfer is issued (§1: "scheduling algorithms that
    allocate computing and storage resources first, and then generate
    data transfer requests"), so a job holds ``cpus`` from its submission
    ``t_s`` until ``τ + cpu_time``.  Rejected transfers release their CPUs
    immediately (the job is resubmitted elsewhere, outside our scope).
    """

    def __init__(self, problem_platform, jobs: Iterable[GridJob]) -> None:
        self.platform = problem_platform
        self.jobs = list(jobs)
        rids = [j.rid for j in self.jobs]
        if len(set(rids)) != len(rids):
            raise ConfigurationError("duplicate job ids")

    def problem(self) -> ProblemInstance:
        """The staging transfers as a schedulable problem instance."""
        return ProblemInstance(self.platform, RequestSet(j.request for j in self.jobs))

    def run(self, scheduler: Scheduler) -> JobSimulationResult:
        """Admit the transfers with ``scheduler`` and replay CPU holds."""
        problem = self.problem()
        schedule = scheduler.schedule(problem)
        result = JobSimulationResult(schedule=schedule)
        result._submissions = {j.rid: j.request.t_start for j in self.jobs}
        for job in self.jobs:
            alloc = schedule.accepted.get(job.rid)
            if alloc is None:
                result.outcomes[job.rid] = JobOutcome(
                    rid=job.rid,
                    admitted=False,
                    staged_at=None,
                    finished_at=None,
                    cpu_seconds_held=0.0,
                )
                continue
            finished = alloc.tau + job.cpu_time
            held = job.cpus * (finished - job.request.t_start)
            result.outcomes[job.rid] = JobOutcome(
                rid=job.rid,
                admitted=True,
                staged_at=alloc.tau,
                finished_at=finished,
                cpu_seconds_held=held,
            )
        return result
