"""Name-based scheduler construction.

The CLI, benchmarks and experiment configs refer to schedulers by short
names such as ``"cumulated-slots"`` or ``"window"``; this registry maps the
names onto configured instances.

Each factory imports its scheduler's module when it is called, so
listing the names imports nothing and ``make_scheduler("bookahead")``
loads the book-ahead search alone, not numpy or the offline heuristics.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..core.errors import ConfigurationError

if TYPE_CHECKING:
    from .base import Scheduler
    from .policies import BandwidthPolicy

__all__ = ["RIGID_SCHEDULERS", "make_scheduler", "available_schedulers"]


def _policy(kw: dict[str, Any]) -> BandwidthPolicy:
    """The ``policy`` option, read by :func:`~.policies.policy_from_name`:
    ``"min-bw"`` (also for ``None``), ``"f=0.8"``, or f as a number or a
    numeral."""
    from .policies import policy_from_name

    policy = kw.pop("policy", None)
    if policy is None:
        policy = "min-bw"
    elif isinstance(policy, bool) or not isinstance(policy, (str, int, float)):
        raise ConfigurationError(f"unknown bandwidth policy {policy!r}")
    return policy_from_name(str(policy))


# Each factory consumes options from the mutable dict it receives, so
# make_scheduler can flag leftovers (typos) afterwards.
def _fcfs_rigid(kw: dict[str, Any]) -> Scheduler:
    from .rigid import FCFSRigid

    return FCFSRigid()


def _fifo_slots(kw: dict[str, Any]) -> Scheduler:
    from .costs import ArrivalCost
    from .rigid import SlotsScheduler

    return SlotsScheduler(ArrivalCost())


def _cumulated_slots(kw: dict[str, Any]) -> Scheduler:
    from .costs import CumulatedCost
    from .rigid import SlotsScheduler

    return SlotsScheduler(
        CumulatedCost(
            use_priority=kw.pop("use_priority", True),
            use_bmin=kw.pop("use_bmin", True),
        )
    )


def _minbw_slots(kw: dict[str, Any]) -> Scheduler:
    from .costs import MinBwCost
    from .rigid import SlotsScheduler

    return SlotsScheduler(MinBwCost())


def _minvol_slots(kw: dict[str, Any]) -> Scheduler:
    from .costs import MinVolCost
    from .rigid import SlotsScheduler

    return SlotsScheduler(MinVolCost())


def _greedy(kw: dict[str, Any]) -> Scheduler:
    from .flexible import GreedyFlexible

    return GreedyFlexible(policy=_policy(kw))


def _window(kw: dict[str, Any]) -> Scheduler:
    from .flexible import WindowFlexible

    return WindowFlexible(t_step=kw.pop("t_step", 400.0), policy=_policy(kw))


def _bookahead(kw: dict[str, Any]) -> Scheduler:
    from .advance import EarliestStartFlexible

    return EarliestStartFlexible(policy=_policy(kw))


def _guaranteed_profile(kw: dict[str, Any]) -> Scheduler:
    from .advance import GuaranteedProfile

    return GuaranteedProfile(policy=_policy(kw))


def _localsearch(kw: dict[str, Any]) -> Scheduler:
    from .localsearch import LocalSearchScheduler

    return LocalSearchScheduler(
        iterations=kw.pop("iterations", 400),
        restarts=kw.pop("restarts", 3),
        seed=kw.pop("seed", 0),
    )


def _retry_greedy(kw: dict[str, Any]) -> Scheduler:
    from .retry import RetryGreedyFlexible

    return RetryGreedyFlexible(
        policy=_policy(kw),
        backoff=kw.pop("backoff", 60.0),
        multiplier=kw.pop("multiplier", 2.0),
        max_attempts=kw.pop("max_attempts", 8),
    )


_FACTORIES: dict[str, Callable[[dict[str, Any]], Scheduler]] = {
    "fcfs-rigid": _fcfs_rigid,
    "fifo-slots": _fifo_slots,
    "cumulated-slots": _cumulated_slots,
    "minbw-slots": _minbw_slots,
    "minvol-slots": _minvol_slots,
    "greedy": _greedy,
    "window": _window,
    "bookahead": _bookahead,
    "guaranteed-profile": _guaranteed_profile,
    "localsearch": _localsearch,
    "retry-greedy": _retry_greedy,
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

    Unconsumed keyword options raise, catching typos in experiment configs,
    and so does a ``policy`` that names no bandwidth policy.
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
