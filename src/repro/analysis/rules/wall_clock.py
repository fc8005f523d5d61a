"""GL001 — no wall-clock reads in deterministic code.

Journal replay (:meth:`repro.control.service.ReservationService.replay`)
rebuilds a service from recorded operations; any ambient time source —
``time.time()``, ``datetime.now()``, ``perf_counter()`` — makes the rebuilt
state diverge from the original.  Simulated time always arrives as an
explicit ``now``/``t`` argument.  Real-clock timing is legitimate only in
reporting and benchmarking, which the allowlist exempts.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from ..engine import Finding, Module, Rule
from ._common import ImportTracker

__all__ = ["WallClockRule"]

#: Qualified callables that read the host clock.
_BANNED = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """Ban host-clock reads outside reporting/benchmark code."""

    rule_id: ClassVar[str] = "GL001"
    title: ClassVar[str] = "no-wall-clock"
    severity: ClassVar[str] = "error"
    allowlist: ClassVar[tuple[str, ...]] = (
        "experiments/report_gen.py",
        "benchmarks/",
        "tests/",
        # The injectable benchmark clock: the one module allowed to wrap
        # time.perf_counter().  Everything else must take simulated time
        # as an argument (or a PerfClock instance).
        "obs/perfclock.py",
        # The service plane's wall↔sim seam: WallServiceClock maps
        # time.monotonic() onto the gateway's time axis.  Every other
        # serve module takes a ServiceClock — the deterministic
        # LogicalClock drives the same code in tests and equivalence
        # suites.
        "serve/clock.py",
    )

    def check(self, module: Module) -> Iterable[Finding]:
        tracker = ImportTracker()
        tracker.visit(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = tracker.resolve(node.func)
            if origin in _BANNED:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {origin}() breaks replay determinism; "
                    "take simulated time as an explicit argument",
                )
