"""gridflow: flow-sensitive analysis substrate for gridlint.

Layers (each usable on its own):

- :mod:`~repro.analysis.flow.cfg` — per-function control-flow graphs over
  ``ast`` with explicit exception edges and a pluggable raise filter;
- :mod:`~repro.analysis.flow.solver` — generic forward worklist dataflow
  solver, plus reaching definitions as a library pass;
- :mod:`~repro.analysis.flow.typestate` — resource typestate checker
  parameterised by (acquire, release, transfer) verb sets.

Rules GL011 and GL012 are clients; see ``docs/FLOW.md`` for the
architecture and a worked hold-leak example.
"""

from .cfg import (
    CFG,
    EXC,
    FALSE,
    NORMAL,
    TRUE,
    CFGNode,
    Edge,
    build_cfg,
    function_cfgs,
    stmt_exprs,
    syntactic_can_raise,
)
from .solver import (
    Analysis,
    DataflowResult,
    assigned_names,
    reaching_definitions,
    solve,
)
from .typestate import (
    ResourceSpec,
    TypestateEvent,
    check_function,
    spec_can_raise,
)

__all__ = [
    "CFG",
    "CFGNode",
    "Edge",
    "EXC",
    "FALSE",
    "NORMAL",
    "TRUE",
    "Analysis",
    "DataflowResult",
    "ResourceSpec",
    "TypestateEvent",
    "assigned_names",
    "build_cfg",
    "check_function",
    "function_cfgs",
    "reaching_definitions",
    "solve",
    "spec_can_raise",
    "stmt_exprs",
    "syntactic_can_raise",
]
