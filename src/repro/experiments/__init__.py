"""Experiment harness: figure definitions, replication, ASCII charts."""

from .figures import (
    FIGURES,
    ablation_cost,
    ablation_window,
    control_latency,
    extensions,
    hotspot,
    fig4,
    fig5,
    fig6,
    fig7,
    section53_claims,
    tcp_baseline,
    tuning_factor,
)
from .extended import (
    coallocation,
    diurnal_load,
    localsearch_study,
    optimality_gap_flexible,
    rtt_unfairness_study,
)
from .gantt import occupancy_strip, schedule_gantt
from .planning import PlanningResult, capacity_for_accept_rate
from .report_gen import generate_all
from .plotting import ascii_chart
from .runner import Aggregate, replicate
from .stats import (
    SchedulerComparison,
    compare_schedulers,
    t_confidence_interval,
)

__all__ = [
    "FIGURES",
    "Aggregate",
    "PlanningResult",
    "SchedulerComparison",
    "compare_schedulers",
    "t_confidence_interval",
    "capacity_for_accept_rate",
    "coallocation",
    "diurnal_load",
    "generate_all",
    "localsearch_study",
    "optimality_gap_flexible",
    "rtt_unfairness_study",
    "ablation_cost",
    "ablation_window",
    "ascii_chart",
    "control_latency",
    "extensions",
    "hotspot",
    "occupancy_strip",
    "schedule_gantt",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "replicate",
    "section53_claims",
    "tcp_baseline",
    "tuning_factor",
]
