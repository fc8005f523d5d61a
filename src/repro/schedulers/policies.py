"""Bandwidth assignment policies (paper §2.3, §5.1).

When a flexible request is accepted, the scheduler must pick ``bw(r)`` in
``[MinRate, MaxRate]``.  The paper studies two families:

- **MIN BW** — grant exactly the rate needed to meet the deadline from the
  actual start time (``MinRate`` when started on arrival).  Maximises the
  chance of acceptance but transfers finish as late as allowed.
- **f × MaxRate** — grant ``max(f × MaxRate, MinRate)`` for a tuning factor
  ``f ∈ (0, 1]``.  Transfers finish sooner (releasing CPU/disk earlier, the
  grid-computing motivation of §2.3) at the price of a possibly lower
  accept rate.

A policy is one function of four numbers, a request's ``vol``, ``t_f`` and
``MaxRate`` and its start ``σ``: the rate to grant, or ``None`` when no
admissible rate exists (the deadline can no longer be met within
``MaxRate``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

from ..core.booking import RateRule
from ..core.errors import ConfigurationError
from ..core.request import Request, deadline_rate

__all__ = [
    "BandwidthPolicy",
    "MinRatePolicy",
    "FractionOfMaxPolicy",
    "FullRatePolicy",
    "policy_from_name",
]


class BandwidthPolicy(abc.ABC):
    """Maps a request's numbers and its actual start time to a rate.

    **The ``monotone`` contract.**  A policy that sets ``monotone = True``
    promises, for any fixed request and any two starts ``s <= s'``:

    (a) the granted rate never decreases — ``rate(..., s) <= rate(..., s')``
        bit for bit — and once it is ``None`` it stays ``None``;
    (b) the finish ``s + vol / rate(..., s)`` never decreases by more than
        :func:`~repro.core.booking.deadline_tolerance` ``(t_end)`` (exact in
        the reals; the slack is for float rounding).

    The earliest-fit search relies on it: a start that bounces off a busy
    segment then rules out every later start under that segment at once,
    unvisited (``docs/CAPACITY.md``, "How the search skips"), so a false
    promise can refuse or misplace a request.  Saying nothing (the default,
    ``False``) is always exact and only slower.  The promise belongs to the
    class that writes ``rate``: a subclass that overrides ``rate`` without
    declaring ``monotone`` in its own body is reset to ``False``.
    """

    #: Identifier used in result metadata and figure legends.
    name: str = "policy"
    #: See the class docstring; declare it next to ``rate``.
    monotone: ClassVar[bool] = False

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "rate" in cls.__dict__ and "monotone" not in cls.__dict__:
            cls.monotone = False

    @abc.abstractmethod
    def rate(self, volume: float, t_end: float, max_rate: float, start: float) -> float | None:
        """Rate to grant a request of ``volume`` due by ``t_end`` from a host
        of ``max_rate`` when it starts at ``start``; ``None`` when the
        deadline is no longer reachable."""

    def bind(self, request: Request) -> RateRule:
        """``sigma -> rate(volume, t_end, max_rate, sigma)``, carrying
        :attr:`monotone`: the rule every book-ahead search is handed."""
        rule = partial(self.rate, request.volume, request.t_end, request.max_rate)
        rule.monotone = self.monotone  # type: ignore[attr-defined]
        return rule  # type: ignore[return-value]


@dataclass(frozen=True)
class MinRatePolicy(BandwidthPolicy):
    """Grant the minimum admissible rate (the paper's MIN BW policy)."""

    name: str = "min-bw"
    # (a) is deadline_rate's; (b): the finish is t_end until MaxRate caps the
    # rate, then sigma + vol / MaxRate.
    monotone: ClassVar[bool] = True

    # The MinRate rule itself, so a bound rule calls it with one frame per start.
    rate = staticmethod(deadline_rate)


@dataclass(frozen=True)
class FractionOfMaxPolicy(BandwidthPolicy):
    """Grant ``max(f × MaxRate, MinRate)`` (paper §2.3).

    ``f = 1`` grants every accepted request its full host rate — the setting
    of the Figure 5 heavy-load experiment.
    """

    f: float = 1.0
    # (a): min / max of the MinRate rule and constants; (b): the finish is
    # min(t_end, sigma + vol / (f × MaxRate)) until MaxRate caps the rate.
    monotone: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (0.0 < self.f <= 1.0):
            raise ConfigurationError(f"tuning factor f must be in (0, 1], got {self.f}")
        # ``:g`` (six digits) wherever it reads back exactly, so f=0.8 and f=1
        # keep their legend names; repr otherwise, so policy_from_name — and
        # with it every journal replay — rebuilds this very f.
        short = f"{self.f:g}"
        spelled = short if float(short) == self.f else repr(self.f)
        object.__setattr__(self, "name", f"f={spelled}")

    def rate(self, volume: float, t_end: float, max_rate: float, start: float) -> float | None:
        floor = deadline_rate(volume, t_end, max_rate, start)
        if floor is None:
            return None
        return min(max(self.f * max_rate, floor), max_rate)


def FullRatePolicy() -> FractionOfMaxPolicy:
    """``f = 1``: every accepted request gets its full ``MaxRate``."""
    return FractionOfMaxPolicy(1.0)


def policy_from_name(name: str) -> BandwidthPolicy:
    """Reconstruct a policy from its ``name`` attribute, or from a bare f.

    The inverse of the naming scheme above (``"min-bw"``, ``"f=0.8"``), and
    ``"0.8"`` for ``f=0.8``: the one parser of a policy option, used by the
    journal replay path to rebuild a service from its header, by
    :func:`~repro.schedulers.make_scheduler` and by the CLI.
    """
    if name == MinRatePolicy.name:
        return MinRatePolicy()
    prefixed = name.startswith("f=")
    try:
        f = float(name[2:] if prefixed else name)
    except ValueError:
        kind = "malformed" if prefixed else "unknown"
        raise ConfigurationError(f"{kind} policy name {name!r}") from None
    return FractionOfMaxPolicy(f)
