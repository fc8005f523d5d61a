"""Grid job co-allocation: the CPU side of the tuning-factor argument (§2.3).

Jobs hold processors from submission until their data staging *and*
compute finish; granting transfers more bandwidth (larger ``f``) releases
CPUs earlier at the price of accept rate.  See :class:`JobSimulator`.
"""

from .jobs import GridJob, JobOutcome, JobSimulationResult, JobSimulator
from .workload import random_jobs

__all__ = [
    "GridJob",
    "JobOutcome",
    "JobSimulationResult",
    "JobSimulator",
    "random_jobs",
]
