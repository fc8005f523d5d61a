"""The gridlint rule catalogue.

Each module defines one rule class; :func:`all_rules` instantiates the full
set in id order.  ``docs/ANALYSIS.md`` documents every rule with the
replay/admission invariant it protects, the mistake it catches today, and
the ids that were retired (GL008, GL010, GL013, GL014).
"""

from __future__ import annotations

from ..engine import Rule
from .wall_clock import WallClockRule
from .rng import UnseededRngRule
from .float_eq import FloatEqRule
from .encapsulation import LedgerEncapsulationRule
from .registry_complete import RegistryCompletenessRule
from .journal_safety import JournalSafetyRule
from .asserts import NoAssertRule
from .timeline_internals import TimelineInternalsRule
from .hold_leak import HoldLeakRule
from .twophase_order import TwoPhaseOrderRule
from .route_registry import RouteRegistryRule

__all__ = ["all_rules", "rules_by_id"]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    WallClockRule,
    UnseededRngRule,
    FloatEqRule,
    LedgerEncapsulationRule,
    RegistryCompletenessRule,
    JournalSafetyRule,
    NoAssertRule,
    TimelineInternalsRule,
    HoldLeakRule,
    TwoPhaseOrderRule,
    RouteRegistryRule,
)


def all_rules() -> list[Rule]:
    """One instance of every rule, sorted by rule id."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.rule_id)


def rules_by_id() -> dict[str, Rule]:
    """Map ``rule_id`` → instance for CLI selection."""
    return {rule.rule_id: rule for rule in all_rules()}
