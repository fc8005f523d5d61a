"""Reproduction of *Optimal Bandwidth Sharing in Grid Environments* (HPDC 2006).

Window-based admission control and bandwidth reservation for bulk data
transfers at the edge of a grid overlay network, together with every
substrate the paper's evaluation relies on: workload generation, exact
solvers and the NP-completeness reduction, a max-min-fair fluid baseline,
a simulated reservation control plane, and the experiment harness that
regenerates Figures 4–7.

Quickstart::

    import numpy as np
    from repro import Platform, FlexibleWorkload, PoissonArrivals, WindowFlexible

    platform = Platform.paper_platform()           # 10x10 ports at 1 GB/s
    workload = FlexibleWorkload(platform, PoissonArrivals(mean=2.0))
    problem = workload.generate(500, np.random.default_rng(0))
    result = WindowFlexible(t_step=400).schedule(problem)
    print(f"accept rate: {result.accept_rate:.2%}")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from ._version import __version__

# Every name below is imported on first access (see ``repro._lazy``), so
# ``import repro.serve`` does not load the heuristics, the workload
# generators or numpy.
if TYPE_CHECKING:
    from .core import (
        Allocation,
        CapacityError,
        CapacityProfile,
        ConfigurationError,
        InvalidRequestError,
        make_profile,
        Platform,
        PortLedger,
        ProblemInstance,
        ReproError,
        Request,
        RequestSet,
        ScheduleResult,
        ScheduleViolation,
        guaranteed_count,
        guaranteed_rate,
        resource_utilization,
        resource_utilization_time_averaged,
        verify_schedule,
    )
    from .schedulers import (
        FCFSRigid,
        FractionOfMaxPolicy,
        GreedyFlexible,
        MinRatePolicy,
        SlotsScheduler,
        WindowFlexible,
        available_schedulers,
        cumulated_slots,
        fifo_slots,
        make_scheduler,
        minbw_slots,
        minvol_slots,
    )
    from .workload import (
        FlexibleWorkload,
        PoissonArrivals,
        RigidWorkload,
        paper_flexible_workload,
        paper_rigid_workload,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "Allocation",
            "CapacityError",
            "CapacityProfile",
            "ConfigurationError",
            "InvalidRequestError",
            "make_profile",
            "Platform",
            "PortLedger",
            "ProblemInstance",
            "ReproError",
            "Request",
            "RequestSet",
            "ScheduleResult",
            "ScheduleViolation",
            "guaranteed_count",
            "guaranteed_rate",
            "resource_utilization",
            "resource_utilization_time_averaged",
            "verify_schedule",
        ),
        ".schedulers": (
            "FCFSRigid",
            "FractionOfMaxPolicy",
            "GreedyFlexible",
            "MinRatePolicy",
            "SlotsScheduler",
            "WindowFlexible",
            "available_schedulers",
            "cumulated_slots",
            "fifo_slots",
            "make_scheduler",
            "minbw_slots",
            "minvol_slots",
        ),
        ".workload": (
            "FlexibleWorkload",
            "PoissonArrivals",
            "RigidWorkload",
            "paper_flexible_workload",
            "paper_rigid_workload",
        ),
    },
    globals(),
)

__all__ = [
    "Allocation",
    "CapacityError",
    "CapacityProfile",
    "ConfigurationError",
    "FCFSRigid",
    "FlexibleWorkload",
    "FractionOfMaxPolicy",
    "GreedyFlexible",
    "InvalidRequestError",
    "MinRatePolicy",
    "Platform",
    "PoissonArrivals",
    "PortLedger",
    "ProblemInstance",
    "ReproError",
    "Request",
    "RequestSet",
    "RigidWorkload",
    "ScheduleResult",
    "ScheduleViolation",
    "SlotsScheduler",
    "WindowFlexible",
    "__version__",
    "available_schedulers",
    "cumulated_slots",
    "fifo_slots",
    "guaranteed_count",
    "guaranteed_rate",
    "make_profile",
    "make_scheduler",
    "minbw_slots",
    "minvol_slots",
    "paper_flexible_workload",
    "paper_rigid_workload",
    "resource_utilization",
    "resource_utilization_time_averaged",
    "verify_schedule",
]
