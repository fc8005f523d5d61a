"""Name-based scheduler construction.

The CLI, benchmarks and experiment configs refer to schedulers by short
names such as ``"cumulated-slots"`` or ``"window"``; this registry maps the
names onto configured instances.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..core.errors import ConfigurationError
from .base import Scheduler
from .costs import ArrivalCost, CumulatedCost, MinBwCost, MinVolCost
from .flexible import GreedyFlexible, WindowFlexible
from .localsearch import LocalSearchScheduler
from .policies import FractionOfMaxPolicy, MinRatePolicy
from .advance import EarliestStartFlexible, GuaranteedProfile
from .retry import RetryGreedyFlexible
from .rigid import FCFSRigid, SlotsScheduler

__all__ = ["RIGID_SCHEDULERS", "make_scheduler", "available_schedulers"]


def _make_policy(policy: str | float | None):
    """``"min-bw"``/``None`` → MinRatePolicy, a number ``f`` → f × MaxRate."""
    if policy is None or policy == "min-bw":
        return MinRatePolicy()
    if isinstance(policy, (int, float)):
        return FractionOfMaxPolicy(float(policy))
    if isinstance(policy, str) and policy.startswith("f="):
        return FractionOfMaxPolicy(float(policy[2:]))
    raise ConfigurationError(f"unknown bandwidth policy {policy!r}")


# Each factory consumes options from the mutable dict it receives, so
# make_scheduler can flag leftovers (typos) afterwards.
_FACTORIES: dict[str, Callable[[dict[str, Any]], Scheduler]] = {
    "fcfs-rigid": lambda kw: FCFSRigid(),
    "fifo-slots": lambda kw: SlotsScheduler(ArrivalCost()),
    "cumulated-slots": lambda kw: SlotsScheduler(
        CumulatedCost(
            use_priority=kw.pop("use_priority", True),
            use_bmin=kw.pop("use_bmin", True),
        )
    ),
    "minbw-slots": lambda kw: SlotsScheduler(MinBwCost()),
    "minvol-slots": lambda kw: SlotsScheduler(MinVolCost()),
    "greedy": lambda kw: GreedyFlexible(
        policy=_make_policy(kw.pop("policy", None)),
        enforce_deadline=kw.pop("enforce_deadline", True),
    ),
    "window": lambda kw: WindowFlexible(
        t_step=kw.pop("t_step", 400.0),
        policy=_make_policy(kw.pop("policy", None)),
        enforce_deadline=kw.pop("enforce_deadline", True),
    ),
    "bookahead": lambda kw: EarliestStartFlexible(
        policy=_make_policy(kw.pop("policy", None)),
    ),
    "guaranteed-profile": lambda kw: GuaranteedProfile(
        policy=_make_policy(kw.pop("policy", None)),
    ),
    "localsearch": lambda kw: LocalSearchScheduler(
        iterations=kw.pop("iterations", 400),
        restarts=kw.pop("restarts", 3),
        seed=kw.pop("seed", 0),
    ),
    "retry-greedy": lambda kw: RetryGreedyFlexible(
        policy=_make_policy(kw.pop("policy", None)),
        backoff=kw.pop("backoff", 60.0),
        multiplier=kw.pop("multiplier", 2.0),
        max_attempts=kw.pop("max_attempts", 8),
    ),
}


#: Registered names whose scheduler refuses flexible requests: the CLI feeds
#: them a rigid workload and offers only the others where the workload is
#: flexible.
RIGID_SCHEDULERS = frozenset(
    {"fcfs-rigid", "fifo-slots", "cumulated-slots", "minbw-slots", "minvol-slots", "localsearch"}
)


def available_schedulers() -> list[str]:
    """Registered scheduler names, sorted."""
    return sorted(_FACTORIES)


def make_scheduler(name: str, **options: Any) -> Scheduler:
    """Construct the scheduler registered under ``name``.

    Unconsumed keyword options raise, catching typos in experiment configs.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    remaining = dict(options)
    scheduler = factory(remaining)
    if remaining:
        raise ConfigurationError(f"scheduler {name!r}: unused options {sorted(remaining)}")
    return scheduler
