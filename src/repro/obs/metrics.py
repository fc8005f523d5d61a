"""Labeled metrics: counters, gauges and histograms with text exposition.

A :class:`MetricsRegistry` is a process-local collection of named
instruments.  Everything is dependency-free and deterministic: no clocks,
no threads, no global state — a registry belongs to exactly one
:class:`~repro.obs.telemetry.Telemetry` handle, values are plain floats,
and both export formats (Prometheus text exposition and a canonical JSON
dict) order metrics and label sets lexicographically so two identical runs
serialise byte-identically.

Label values are stringified on entry; a label *set* is the sorted tuple
of ``(key, value)`` pairs, so ``inc(port=3, side="ingress")`` and
``inc(side="ingress", port=3)`` address the same sample.

A hot call site binds its sample once — ``counter.labels(outcome="accepted")``
on a family it holds, ``registry.bind_counter(name, help, outcome="accepted")``
ahead of use — and fires the child (``child.inc()``): no registry lookup,
help string or label sort per call.  Binding writes nothing: a sample exists
from its first ``inc`` / ``observe``, and a family bound through the registry
is registered by its first firing child, exactly when addressing it by name
on every call would have registered it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from ..core.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (an implicit +inf bucket follows).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1000.0, 5000.0,
)

#: ``(key, value)`` pairs identifying one sample of a labeled metric.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Render a float the way the exposition format expects (no trailing .0 noise)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing, labeled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (default 1) to the sample addressed by ``labels``."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease (amount={amount})")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def labels(self, **labels: Any) -> BoundCounter:
        """The sample addressed by ``labels``, bound for repeated ``inc``."""
        return BoundCounter(lambda: self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0 when never incremented)."""
        return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._samples.values())

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        """``(labels, value)`` pairs in label order."""
        for key in sorted(self._samples):
            yield dict(key), self._samples[key]

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": self._samples[key]}
                for key in sorted(self._samples)
            ],
        }

    def expose(self) -> list[str]:
        """Prometheus text exposition lines for this metric."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._samples):
            lines.append(f"{self.name}{_render_labels(key)} {_fmt(self._samples[key])}")
        return lines


class BoundCounter:
    """One label set of a counter or gauge, addressed once.

    ``family`` is asked for at the first ``inc``: :meth:`Counter.labels`
    answers with the family itself, :meth:`MetricsRegistry.bind_counter`
    with the registry's get-or-create — so a child bound ahead of use
    registers nothing until it fires.
    """

    __slots__ = ("_family", "_key", "_samples")

    def __init__(self, family: Callable[[], Counter], key: LabelKey) -> None:
        self._family = family
        self._key = key
        self._samples: dict[LabelKey, float] | None = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the bound sample."""
        samples = self._samples
        if samples is None or amount < 0:
            # The first firing, or a decrement: the family's own ``inc``
            # knows whether it may go down.
            family = self._family()
            self._samples = family._samples
            family.inc(amount, **dict(self._key))
            return
        samples[self._key] = samples.get(self._key, 0.0) + amount


class Gauge(Counter):
    """A labeled gauge: settable to arbitrary values, with a max-tracking helper."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Gauges move freely: negative deltas are fine."""
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Set the sample addressed by ``labels`` to ``value``."""
        self._samples[_label_key(labels)] = float(value)

    def set_max(self, value: float, **labels: Any) -> None:
        """Raise the sample to ``value`` when that is larger (peak tracking)."""
        key = _label_key(labels)
        current = self._samples.get(key)
        if current is None or value > current:
            self._samples[key] = float(value)


class Histogram:
    """A labeled histogram over fixed buckets (upper bounds, +inf implicit)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name} needs strictly increasing buckets, got {buckets!r}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        # Per label set: per-bucket counts (len(buckets) + 1 for +inf), sum, count.
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation."""
        self._observe(_label_key(labels), value)

    def _observe(self, key: LabelKey, value: float) -> None:
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
        # First bucket with ``value <= bound``; NaN compares false with
        # every bound and lands in +inf.
        buckets = self.buckets
        counts[bisect_left(buckets, value) if value == value else len(buckets)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def labels(self, **labels: Any) -> BoundHistogram:
        """The sample addressed by ``labels``, bound for repeated ``observe``."""
        return BoundHistogram(lambda: self, _label_key(labels))

    def count(self, **labels: Any) -> int:
        """Number of observations for one label set."""
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: Any) -> float:
        """Sum of observations for one label set."""
        return self._sums.get(_label_key(labels), 0.0)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form (raw, non-cumulative bucket counts)."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": dict(key),
                    "counts": list(self._counts[key]),
                    "sum": self._sums[key],
                    "count": self._totals[key],
                }
                for key in sorted(self._counts)
            ],
        }

    def expose(self) -> list[str]:
        """Prometheus text exposition (cumulative ``_bucket`` series)."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key in sorted(self._counts):
            cumulative = 0
            for k, bound in enumerate(self.buckets):
                cumulative += self._counts[key][k]
                le = _label_key({**dict(key), "le": _fmt(bound)})
                lines.append(f"{self.name}_bucket{_render_labels(le)} {cumulative}")
            cumulative += self._counts[key][-1]
            le = _label_key({**dict(key), "le": "+Inf"})
            lines.append(f"{self.name}_bucket{_render_labels(le)} {cumulative}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_fmt(self._sums[key])}")
            lines.append(f"{self.name}_count{_render_labels(key)} {self._totals[key]}")
        return lines


class BoundHistogram:
    """One label set of a :class:`Histogram`, addressed once (the family
    is asked for at the first ``observe``, as in :class:`BoundCounter`)."""

    __slots__ = ("_family", "_key", "_histogram")

    def __init__(self, family: Callable[[], Histogram], key: LabelKey) -> None:
        self._family = family
        self._key = key
        self._histogram: Histogram | None = None

    def observe(self, value: float) -> None:
        """Record one observation on the bound sample."""
        histogram = self._histogram
        if histogram is None:
            histogram = self._histogram = self._family()
        histogram._observe(self._key, value)


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument; requesting it as
    a different kind is a configuration error (two call sites disagreeing
    about a metric's type is always a bug).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> Instrument | None:
        """The instrument registered under ``name``, if any."""
        return self._metrics.get(name)

    def _register(self, name: str, kind: type, factory: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested as {kind.kind}"  # type: ignore[attr-defined]
                )
            return existing
        instrument = factory()
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._register(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._register(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create a histogram."""
        return self._register(name, Histogram, lambda: Histogram(name, help, buckets))

    def bind_counter(self, name: str, help: str = "", /, **labels: Any) -> BoundCounter:
        """One sample of counter ``name``, bound ahead of use: the family
        is got or created by the child's first ``inc``, not here."""
        return BoundCounter(lambda: self.counter(name, help), _label_key(labels))

    def bind_histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        /,
        **labels: Any,
    ) -> BoundHistogram:
        """One sample of histogram ``name``, bound ahead of use: the family
        is got or created by the child's first ``observe``, not here."""
        return BoundHistogram(
            lambda: self.histogram(name, help, buckets), _label_key(labels)
        )

    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form, metrics sorted by name."""
        return {"metrics": [self._metrics[name].to_dict() for name in sorted(self._metrics)]}

    def to_json(self) -> str:
        """Stable JSON export (sorted keys, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> MetricsRegistry:
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for item in data.get("metrics", []):
            name = str(item["name"])
            kind = str(item["type"])
            help_text = str(item.get("help", ""))
            if kind == "histogram":
                hist = registry.histogram(name, help_text, buckets=item["buckets"])
                for sample in item.get("samples", []):
                    key = _label_key(sample.get("labels", {}))
                    hist._counts[key] = [int(c) for c in sample["counts"]]
                    hist._sums[key] = float(sample["sum"])
                    hist._totals[key] = int(sample["count"])
            elif kind in ("counter", "gauge"):
                inst = registry.counter(name, help_text) if kind == "counter" else registry.gauge(
                    name, help_text
                )
                for sample in item.get("samples", []):
                    inst._samples[_label_key(sample.get("labels", {}))] = float(sample["value"])
            else:
                raise ConfigurationError(f"unknown metric type {kind!r} for {name!r}")
        return registry
