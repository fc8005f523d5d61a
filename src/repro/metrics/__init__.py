"""Evaluation metrics and report tables."""

from .collector import MetricsReport, evaluate, jain_index
from .faults import FaultStats
from .report import Table

__all__ = [
    "FaultStats",
    "MetricsReport",
    "Table",
    "evaluate",
    "jain_index",
]
