"""SLO watchdog: declarative service-level rules over windowed aggregates.

A :class:`SloRule` names one bound on one gateway health metric — an
``accept_rate`` floor, a ``p99_admission_latency`` ceiling (simulated
time), a ``max_hold_age`` ceiling, a ``backlog_depth`` ceiling or an
``overcommit_proximity`` ceiling — optionally restricted to a sliding
window of recent simulated time.  The :class:`SloWatchdog` ingests
admission decisions and health samples from the gateway, evaluates every
rule at each batch flush, and emits edge-triggered :class:`SloBreach`
records (plus an ``slo.breach`` telemetry event and an
``slo_breaches_total`` counter) when a bound is first crossed.

A gateway built with ``slo=`` feeds its watchdog whatever drives it,
:func:`repro.control.faults.run_fault_drill` included; the chaos matrix
(:func:`repro.control.faults.run_chaos_matrix`) gives every cell one, so
each cell reports both invariant *and* SLO verdicts.  ``grid-obs slo``
replays the same evaluation offline against a
:class:`~repro.obs.artifact.RunTelemetry` artifact and a rules file.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.errors import ReproError
from .causal import iter_captures

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .artifact import RunTelemetry
    from .telemetry import Telemetry

__all__ = [
    "SLO_METRICS",
    "SloBreach",
    "SloRule",
    "SloWatchdog",
    "default_slo_rules",
    "evaluate_artifact",
    "load_rules",
]

#: The gateway health metrics a rule may bound.
SLO_METRICS = (
    "accept_rate",
    "p99_admission_latency",
    "max_hold_age",
    "backlog_depth",
    "overcommit_proximity",
)

_BOUNDS = ("floor", "ceiling")

#: The metrics read off the health sample of each flush.
_SAMPLED = ("backlog_depth", "max_hold_age", "overcommit_proximity")


class SloRuleError(ReproError, ValueError):
    """A rule (or rules file) is malformed."""


@dataclass(frozen=True, slots=True)
class SloRule:
    """One declarative bound: ``metric`` must stay above/below ``threshold``.

    ``window`` restricts evaluation to the last ``window`` units of
    simulated time (``math.inf`` = whole run so far).
    """

    name: str
    metric: str
    bound: str
    threshold: float
    window: float = math.inf

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise SloRuleError(
                f"rule {self.name!r}: unknown metric {self.metric!r} "
                f"(expected one of {SLO_METRICS})"
            )
        if self.bound not in _BOUNDS:
            raise SloRuleError(
                f"rule {self.name!r}: bound must be 'floor' or 'ceiling', got {self.bound!r}"
            )
        if math.isnan(self.threshold):
            raise SloRuleError(f"rule {self.name!r}: threshold must be a number")
        if not self.window > 0:  # NaN too: a NaN window would never breach
            raise SloRuleError(f"rule {self.name!r}: window must be positive")

    def violated(self, value: float) -> bool:
        """Whether ``value`` breaks this bound."""
        if self.bound == "floor":
            return value < self.threshold
        return value > self.threshold

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "bound": self.bound,
            "threshold": self.threshold,
            "window": None if math.isinf(self.window) else self.window,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> SloRule:
        if not isinstance(data, dict):
            raise SloRuleError(f"a rule must be an object, got {data!r}")
        try:
            name, metric, bound = str(data["name"]), str(data["metric"]), str(data["bound"])
            threshold, window = float(data["threshold"]), data.get("window")
            span = math.inf if window is None else float(window)
        except KeyError as exc:
            raise SloRuleError(f"rule is missing required key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise SloRuleError(f"rule {data.get('name')!r}: {exc}") from exc
        return cls(name, metric, bound, threshold, span)


@dataclass(frozen=True, slots=True)
class SloBreach:
    """One edge-triggered breach: which rule broke, on what value, when."""

    rule: str
    metric: str
    bound: str
    threshold: float
    value: float
    at: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "bound": self.bound,
            "threshold": self.threshold,
            "value": self.value,
            "at": self.at,
        }


class _Judge:
    """One rule's own count of the inputs it reads.

    An accept rate counts admissions and acceptances.  Any other rule
    counts its inputs and keeps, sorted, only those past its threshold:
    while the rule is breached its value (the p99's nearest rank, or a
    sampled metric's worst) is one of them, and otherwise it is inside
    its bound (``None``).  A whole-run sampled rule keeps only its worst.
    A finite window also keeps one ``(t, x)`` row per input, oldest
    first, un-counted as the window passes it (evaluation instants never
    decrease: the gateway clock only moves forward).
    """

    __slots__ = ("rule", "rows", "n", "accepted", "past")

    def __init__(self, rule: SloRule) -> None:
        self.rule = rule
        self.rows: deque[tuple[float, float]] | None = (
            None if math.isinf(rule.window) else deque()
        )
        self.n = self.accepted = 0
        self.past: list[float] = []

    def add(self, t: float, x: float) -> None:
        self._count(x, 1)
        if self.rows is not None:
            self.rows.append((t, x))
        elif self.rule.metric in _SAMPLED and len(self.past) > 1:
            self.past = self.past[:1] if self.rule.bound == "floor" else self.past[-1:]

    def _count(self, x: float, step: int) -> None:
        self.n += step
        if self.rule.metric == "accept_rate":
            self.accepted += step if x else 0
        elif self.rule.violated(x):
            if step > 0:
                insort(self.past, x)
            else:
                del self.past[bisect_left(self.past, x)]

    def value(self, now: float) -> float | None:
        rows = self.rows
        if rows is not None:
            since = now - self.rule.window
            while rows and rows[0][0] < since:
                self._count(rows.popleft()[1], -1)
        n, past, floor = self.n, self.past, self.rule.bound == "floor"
        if not n:
            return None
        if self.rule.metric == "accept_rate":
            return self.accepted / n
        if self.rule.metric in _SAMPLED:
            rank = 0 if floor else len(past) - 1
        else:  # the p99's nearest rank, 0-based, among all n latencies
            rank = max(min(n - 1, math.ceil(0.99 * n) - 1), 0)
            if not floor:  # past a ceiling: the largest
                rank -= n - len(past)
        return past[rank] if 0 <= rank < len(past) else None


class SloWatchdog:
    """Evaluates a rule set, one :class:`_Judge` per rule.

    Breaches are **edge-triggered**: a rule that stays violated across
    many evaluations produces one breach when it first crosses and a new
    one only after it recovers and crosses again.
    """

    def __init__(self, rules: Sequence[SloRule]) -> None:
        names = [rule.name for rule in rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SloRuleError(f"duplicate rule name(s): {dupes}")
        self.rules = tuple(rules)
        self.breaches: list[SloBreach] = []
        self._judges = [_Judge(rule) for rule in self.rules]
        #: Each metric's judges, the inputs :meth:`admission` and
        #: :meth:`sample` feed.
        self._fed: dict[str, list[_Judge]] = {}
        for each in self._judges:
            self._fed.setdefault(each.rule.metric, []).append(each)
        self._active: set[str] = set()

    @property
    def ok(self) -> bool:
        """True while no rule has ever breached."""
        return not self.breaches

    @property
    def active(self) -> tuple[str, ...]:
        """Names of rules violated at the last evaluation (sorted).

        Breaches are edge-triggered, so :attr:`breaches` only ever grows;
        a *liveness* probe (the service plane's ``/healthz``) instead
        needs "is anything wrong right now" — a rule leaves this set as
        soon as an evaluation sees it back inside its bound.
        """
        return tuple(sorted(self._active))

    @property
    def healthy(self) -> bool:
        """True when no rule is violated *currently* (see :attr:`active`)."""
        return not self._active

    def admission(self, t: float, *, accepted: bool, latency: float) -> None:
        """Ingest one admission decision (latency in simulated time)."""
        for judge in self._fed.get("accept_rate", ()):
            judge.add(t, accepted)
        for judge in self._fed.get("p99_admission_latency", ()):
            judge.add(t, latency)

    def sample(self, metric: str, t: float, value: float) -> None:
        """Ingest one health sample (hold age, backlog depth, utilisation)."""
        for judge in self._fed.get(metric, ()):
            judge.add(t, value)

    def evaluate(self, now: float, *, telemetry: Telemetry | None = None) -> list[SloBreach]:
        """Evaluate every rule at ``now``; returns breaches new this call."""
        fresh: list[SloBreach] = []
        for judge in self._judges:
            rule = judge.rule
            value = judge.value(now)
            if value is None or not rule.violated(value):
                self._active.discard(rule.name)
                continue
            if rule.name in self._active:
                continue
            self._active.add(rule.name)
            breach = SloBreach(
                rule=rule.name,
                metric=rule.metric,
                bound=rule.bound,
                threshold=rule.threshold,
                value=value,
                at=now,
            )
            self.breaches.append(breach)
            fresh.append(breach)
            if telemetry is not None and telemetry.enabled:
                telemetry.emit("slo.breach", now, **breach.to_dict())
                telemetry.metrics.counter(
                    "slo_breaches_total", "SLO rule breaches (edge-triggered)."
                ).inc(rule=rule.name)
        return fresh

    def report(self) -> dict[str, Any]:
        """The cell-level verdict: ok flag, breaches, the rule set."""
        return {
            "ok": self.ok,
            "breaches": [breach.to_dict() for breach in self.breaches],
            "rules": [rule.to_dict() for rule in self.rules],
        }


def default_slo_rules(
    *, hold_ttl: float = 300.0, rpc_deadline: float | None = None
) -> tuple[SloRule, ...]:
    """A conservative rule set scaled to the gateway's own knobs.

    The latency ceiling budgets for the worst chaos path — a full retry
    ladder on each of the four 2PC legs — so it gates pathology, not
    ordinary chaos-induced slowness.  No rule bounds the backlog: the
    gateway never parks more than its ``backlog_limit``.
    """
    deadline = rpc_deadline if rpc_deadline is not None else 60.0
    return (
        SloRule("accept-rate-floor", "accept_rate", "floor", 0.02),
        SloRule(
            "admission-p99-ceiling",
            "p99_admission_latency",
            "ceiling",
            max(60.0, 8.0 * deadline),
        ),
        SloRule("hold-age-ceiling", "max_hold_age", "ceiling", 1.5 * hold_ttl),
        SloRule("overcommit-ceiling", "overcommit_proximity", "ceiling", 1.000001),
    )


def load_rules(path: str | Path) -> tuple[SloRule, ...]:
    """Load a rules file: JSON ``{"rules": [...]}`` or a bare list.  Text
    that is not one raises :class:`SloRuleError` naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(raw, dict):
            raw = raw.get("rules")
        if not isinstance(raw, list):
            raise SloRuleError("expected a list of rules or {'rules': [...]}")
        return tuple(SloRule.from_dict(item) for item in raw)
    except ValueError as exc:  # bad JSON or a bad rule (SloRuleError is one)
        raise SloRuleError(f"rules file {path}: {exc}") from exc


def evaluate_artifact(
    artifact: RunTelemetry | Mapping[str, Any], rules: Sequence[SloRule]
) -> dict[str, Any]:
    """Replay the watchdog offline over a run artifact's event stream.

    Feeds every capture's ``gateway.submit`` (admission + latency) and
    ``gateway.batch`` (health samples) events through a fresh watchdog in
    time order, evaluating at each flush — the same cadence the live
    gateway uses — and once more at the end of the capture.
    """
    captures: list[dict[str, Any]] = []
    for entry in iter_captures(artifact):
        watchdog = SloWatchdog(rules)
        last_time: float | None = None
        for event in entry.get("events", []):
            t = float(event["time"])
            name = event["name"]
            fields = event.get("fields", {})
            last_time = t
            if name == "gateway.submit" and "latency" in fields:
                watchdog.admission(
                    t,
                    accepted=fields.get("outcome") == "accepted",
                    latency=float(fields["latency"]),
                )
            elif name == "gateway.batch":
                for metric in _SAMPLED:
                    if metric in fields:
                        watchdog.sample(metric, t, float(fields[metric]))
                watchdog.evaluate(t)
        if last_time is not None:
            watchdog.evaluate(last_time)
        captures.append({"label": entry.get("label", ""), **watchdog.report()})
    return {
        "ok": all(capture["ok"] for capture in captures),
        "rules": [rule.to_dict() for rule in rules],
        "captures": captures,
    }
