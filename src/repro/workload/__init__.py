"""Workload generation: arrivals, volumes, rates, pairs, load calibration.

Reproduces the paper's simulation settings (§4.3, §5.3) and provides
alternative distributions for sensitivity studies.
"""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    SinusoidalArrivals,
)
from .durations import (
    DurationDistribution,
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
)
from .matrix import HotspotPairs, PairSelector, UniformPairs
from .rates import RateDistribution, UniformRates, paper_rates
from .summary import summarize, text_histogram
from .volumes import (
    ChoiceVolumes,
    PaperVolumes,
    UniformVolumes,
    VolumeDistribution,
    paper_volume_set,
)

__all__ = [
    "ArrivalProcess",
    "ChoiceVolumes",
    "DeterministicArrivals",
    "DurationDistribution",
    "FlexibleWorkload",
    "HotspotPairs",
    "LogUniformDurations",
    "PairSelector",
    "PaperVolumes",
    "PoissonArrivals",
    "RateDistribution",
    "RigidWorkload",
    "SinusoidalArrivals",
    "SlottedRigidWorkload",
    "UniformDurations",
    "UniformPairs",
    "UniformRates",
    "UniformVolumes",
    "VolumeDistribution",
    "arrival_rate_for_load",
    "empirical_load",
    "mean_interarrival_for_load",
    "paper_durations",
    "paper_flexible_workload",
    "paper_rates",
    "paper_rigid_workload",
    "paper_volume_set",
    "summarize",
    "text_histogram",
]
