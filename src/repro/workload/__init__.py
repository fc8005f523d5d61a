"""Workload generation: arrivals, volumes, rates, pairs, load calibration.

Reproduces the paper's simulation settings (§4.3, §5.3) and provides
alternative distributions for sensitivity studies.
"""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    SinusoidalArrivals,
    TraceArrivals,
)
from .durations import (
    DurationDistribution,
    FixedDuration,
    LogUniformDurations,
    UniformDurations,
    paper_durations,
)
from .generator import (
    FlexibleWorkload,
    RigidWorkload,
    SlottedRigidWorkload,
    paper_flexible_workload,
    paper_rigid_workload,
)
from .load import (
    arrival_rate_for_load,
    empirical_load,
    mean_interarrival_for_load,
    offered_load,
    steady_state_load,
)
from .matrix import FixedPair, GravityPairs, HotspotPairs, PairSelector, UniformPairs
from .rates import FixedRate, LogUniformRates, RateDistribution, UniformRates, paper_rates
from .summary import summarize, text_histogram
from .volumes import (
    ChoiceVolumes,
    FixedVolume,
    LogUniformVolumes,
    PaperVolumes,
    UniformVolumes,
    VolumeDistribution,
    paper_volume_set,
)

__all__ = [
    "ArrivalProcess",
    "ChoiceVolumes",
    "DeterministicArrivals",
    "FixedPair",
    "FixedRate",
    "FixedVolume",
    "DurationDistribution",
    "FixedDuration",
    "FlexibleWorkload",
    "GravityPairs",
    "HotspotPairs",
    "LogUniformDurations",
    "LogUniformRates",
    "LogUniformVolumes",
    "PairSelector",
    "PaperVolumes",
    "PoissonArrivals",
    "RateDistribution",
    "RigidWorkload",
    "SinusoidalArrivals",
    "SlottedRigidWorkload",
    "TraceArrivals",
    "UniformDurations",
    "UniformPairs",
    "UniformRates",
    "UniformVolumes",
    "VolumeDistribution",
    "arrival_rate_for_load",
    "empirical_load",
    "mean_interarrival_for_load",
    "offered_load",
    "paper_durations",
    "paper_flexible_workload",
    "paper_rates",
    "paper_rigid_workload",
    "paper_volume_set",
    "steady_state_load",
    "summarize",
    "text_histogram",
]
