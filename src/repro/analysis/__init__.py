"""gridlint — domain-aware static analysis for the repro codebase.

The fault-tolerant control plane (PR 1) made two properties load-bearing:

- **replay determinism** — :meth:`repro.gateway.gateway.Gateway.replay`
  must rebuild a byte-identical gateway from its journal, so simulation and
  control code may not read wall clocks or draw from ambient RNG state;
- **ledger encapsulation** — every capacity decision flows through
  :class:`repro.core.ledger.PortLedger` and :mod:`repro.core.booking`
  (paper Eq. 1), so nothing may poke ledger or reservation internals from
  the outside.

Code review cannot reliably police these invariants; an AST pass can.  This
package is a small rule engine (:mod:`repro.analysis.engine`) plus the
domain rules (:mod:`repro.analysis.rules`), exposed as ``python -m
repro.analysis`` and the ``grid-lint`` console script.  See
``docs/ANALYSIS.md`` for the rule catalogue and suppression syntax.
"""

from __future__ import annotations

from .engine import AnalysisReport, Finding, Module, Project, Rule, run_analysis
from .rules import all_rules

__all__ = [
    "AnalysisReport",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "all_rules",
    "run_analysis",
]
