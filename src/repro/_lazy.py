"""Lazy package re-exports (PEP 562).

Three packages re-export names from submodules that a process which only
admits does not run: ``repro`` (numpy, the workload generators and the
offline heuristics), ``repro.schedulers`` (the heuristics besides the
book-ahead search) and ``repro.control`` (the fault drills, the signalling
simulation and the event engine under them).  Neither a serving process
nor a library one that books ahead, verifies and replays should pay for
those imports at start-up, so each of the three packages imports an
exported name's defining submodule on first access.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]], namespace: dict[str, Any]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose ``table``
    maps each relative submodule to the names it defines; a resolved name
    is cached in the package ``namespace``."""
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__
