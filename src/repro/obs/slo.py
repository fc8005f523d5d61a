"""SLO watchdog: declarative service-level rules over windowed aggregates.

A :class:`SloRule` names one bound on one gateway health metric — an
``accept_rate`` floor, a ``p99_admission_latency`` ceiling (simulated
time), a ``max_hold_age`` ceiling, a ``backlog_depth`` ceiling or an
``overcommit_proximity`` ceiling — optionally restricted to a sliding
window of recent simulated time.  The :class:`SloWatchdog` ingests
admission decisions and health samples from the gateway, evaluates every
rule at each batch flush, and emits edge-triggered :class:`SloBreach`
records (plus an ``slo.breach`` telemetry event, an
``slo_breaches_total`` counter and a flight-recorder row) when a bound
is first crossed.

A gateway built with ``slo=`` feeds its watchdog whatever drives it,
:func:`repro.control.faults.run_fault_drill` included; the chaos matrix
(:func:`repro.control.faults.run_chaos_matrix`) gives every cell one, so
each cell reports both invariant *and* SLO verdicts.  ``grid-obs slo``
replays the same evaluation offline against a
:class:`~repro.obs.artifact.RunTelemetry` artifact and a rules file.
"""

from __future__ import annotations

import heapq
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.errors import ReproError
from .causal import iter_captures

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .artifact import RunTelemetry
    from .recorder import FlightRecorder
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
        if self.window <= 0:
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
        try:
            window = data.get("window")
            return cls(
                name=str(data["name"]),
                metric=str(data["metric"]),
                bound=str(data["bound"]),
                threshold=float(data["threshold"]),
                window=math.inf if window is None else float(window),
            )
        except KeyError as exc:
            raise SloRuleError(f"rule is missing required key {exc.args[0]!r}") from exc


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


def _p99_index(n: int) -> int:
    """Rank of the p99 in ``n`` sorted values (nearest-rank, 0-based)."""
    return max(min(n - 1, math.ceil(0.99 * n) - 1), 0)


class _RunningP99:
    """The whole-run p99, ``sorted(values)[_p99_index(n)]``, kept exactly
    by two heaps split at that rank: O(log n) per value, O(1) per read."""

    def __init__(self) -> None:
        self._low: list[float] = []  # max-heap (negated): the smallest rank + 1
        self._high: list[float] = []  # min-heap: the rest

    def add(self, value: float) -> None:
        if self._low and value <= -self._low[0]:
            heapq.heappush(self._low, -value)
        else:
            heapq.heappush(self._high, value)
        keep = _p99_index(len(self._low) + len(self._high)) + 1
        while len(self._low) > keep:
            heapq.heappush(self._high, -heapq.heappop(self._low))
        while len(self._low) < keep:
            heapq.heappush(self._low, -heapq.heappop(self._high))

    def value(self) -> float | None:
        return -self._low[0] if self._low else None


class SloWatchdog:
    """Evaluates a rule set over the gateway's windowed health aggregates.

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
        finite = [rule.window for rule in self.rules if not math.isinf(rule.window)]
        #: Widest finite window; ``None`` when every rule looks at the whole
        #: run, so no row is kept at all.
        self._span = max(finite) if finite else None
        # Rows inside the widest finite window, for the windowed rules.
        self._recent_admissions: list[tuple[float, bool, float]] = []
        self._recent_samples: dict[str, list[tuple[float, float]]] = {}
        # Running aggregates for the whole-run rules.
        #: Admissions ingested so far.
        self._admissions = 0
        self._accepted = 0
        self._extrema: dict[str, tuple[float, float]] = {}
        whole_p99 = any(
            rule.metric == "p99_admission_latency" and math.isinf(rule.window)
            for rule in self.rules
        )
        self._p99 = _RunningP99() if whole_p99 else None
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
        self._admissions += 1
        if accepted:
            self._accepted += 1
        if self._p99 is not None:
            self._p99.add(latency)
        if self._span is not None:
            self._recent_admissions.append((t, accepted, latency))

    def sample(self, metric: str, t: float, value: float) -> None:
        """Ingest one health sample (hold age, backlog depth, utilisation)."""
        low, high = self._extrema.get(metric, (value, value))
        self._extrema[metric] = (min(low, value), max(high, value))
        if self._span is not None:
            self._recent_samples.setdefault(metric, []).append((t, value))

    def _prune(self, now: float) -> None:
        """Drop rows no windowed rule can read again (evaluation instants
        never decrease: the gateway clock only moves forward)."""
        if self._span is None:
            return
        horizon = now - self._span
        self._recent_admissions = [row for row in self._recent_admissions if row[0] >= horizon]
        for metric, rows in self._recent_samples.items():
            self._recent_samples[metric] = [row for row in rows if row[0] >= horizon]

    def _value_of(self, rule: SloRule, now: float) -> float | None:
        if math.isinf(rule.window):
            return self._whole_run_value(rule)
        since = now - rule.window
        if rule.metric == "accept_rate":
            decided = [row for row in self._recent_admissions if row[0] >= since]
            if not decided:
                return None
            return sum(1 for row in decided if row[1]) / len(decided)
        if rule.metric == "p99_admission_latency":
            latencies = sorted(row[2] for row in self._recent_admissions if row[0] >= since)
            if not latencies:
                return None
            return latencies[_p99_index(len(latencies))]
        rows = [row[1] for row in self._recent_samples.get(rule.metric, ()) if row[0] >= since]
        if not rows:
            return None
        # worst-case within the window: the direction the bound cares about
        return min(rows) if rule.bound == "floor" else max(rows)

    def _whole_run_value(self, rule: SloRule) -> float | None:
        if rule.metric == "accept_rate":
            return self._accepted / self._admissions if self._admissions else None
        if rule.metric == "p99_admission_latency":
            return self._p99.value() if self._p99 is not None else None
        extrema = self._extrema.get(rule.metric)
        if extrema is None:
            return None
        return extrema[0] if rule.bound == "floor" else extrema[1]

    def evaluate(
        self,
        now: float,
        *,
        telemetry: Telemetry | None = None,
        recorder: FlightRecorder | None = None,
    ) -> list[SloBreach]:
        """Evaluate every rule at ``now``; returns breaches new this call."""
        self._prune(now)
        fresh: list[SloBreach] = []
        for rule in self.rules:
            value = self._value_of(rule, now)
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
            if recorder is not None:
                recorder.record("slo", now, "slo.breach", **breach.to_dict())
        return fresh

    def report(self) -> dict[str, Any]:
        """The cell-level verdict: ok flag, breaches, the rule set."""
        return {
            "ok": self.ok,
            "breaches": [breach.to_dict() for breach in self.breaches],
            "rules": [rule.to_dict() for rule in self.rules],
        }


def default_slo_rules(
    *,
    hold_ttl: float = 300.0,
    rpc_deadline: float | None = None,
    backlog_limit: int | None = None,
) -> tuple[SloRule, ...]:
    """A conservative rule set scaled to the gateway's own knobs.

    The latency ceiling budgets for the worst chaos path — a full retry
    ladder on each of the four 2PC legs — so it gates pathology, not
    ordinary chaos-induced slowness.
    """
    deadline = rpc_deadline if rpc_deadline is not None else 60.0
    rules = [
        SloRule("accept-rate-floor", "accept_rate", "floor", 0.02),
        SloRule(
            "admission-p99-ceiling",
            "p99_admission_latency",
            "ceiling",
            max(60.0, 8.0 * deadline),
        ),
        SloRule("hold-age-ceiling", "max_hold_age", "ceiling", 1.5 * hold_ttl),
        SloRule("overcommit-ceiling", "overcommit_proximity", "ceiling", 1.000001),
    ]
    if backlog_limit:
        rules.append(SloRule("backlog-ceiling", "backlog_depth", "ceiling", float(backlog_limit)))
    return tuple(rules)


def load_rules(path: str | Path) -> tuple[SloRule, ...]:
    """Load a rules file: JSON ``{"rules": [...]}`` or a bare list."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        raw = raw.get("rules")
    if not isinstance(raw, list):
        raise SloRuleError(f"{path}: expected a list of rules or {{'rules': [...]}}")
    return tuple(SloRule.from_dict(item) for item in raw)


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
                for metric in ("backlog_depth", "max_hold_age", "overcommit_proximity"):
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
