"""The SLO watchdog's running aggregates against a full rescan.

:class:`~repro.obs.slo.SloWatchdog` keeps running counts, extrema and a
two-heap p99 for whole-run rules, and only the rows inside the widest
finite window for windowed ones.  :class:`ScanWatchdog` below is the
earlier implementation — every row kept (unless every rule is windowed),
every evaluation a rescan — kept here as the reference: over seeded
streams of admissions, samples and evaluations it must report the same
breaches (values included) and the same ``active`` set at every step.
"""

import math
import random

import pytest

from repro.obs.slo import SLO_METRICS, SloBreach, SloRule, SloWatchdog

SAMPLE_METRICS = ("max_hold_age", "backlog_depth", "overcommit_proximity")


class ScanWatchdog:
    """Reference: every rule recomputed from the raw rows at each evaluation."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.breaches = []
        self._admissions = []
        self._samples = {}
        self._active = set()

    @property
    def active(self):
        return tuple(sorted(self._active))

    def admission(self, t, *, accepted, latency):
        self._admissions.append((t, accepted, latency))

    def sample(self, metric, t, value):
        self._samples.setdefault(metric, []).append((t, value))

    def _prune(self, now):
        finite = [rule.window for rule in self.rules if not math.isinf(rule.window)]
        if len(finite) != len(self.rules):
            return
        horizon = now - max(finite, default=0.0)
        self._admissions = [row for row in self._admissions if row[0] >= horizon]
        for metric, rows in self._samples.items():
            self._samples[metric] = [row for row in rows if row[0] >= horizon]

    def _value_of(self, rule, now):
        since = now - rule.window
        if rule.metric == "accept_rate":
            decided = [row for row in self._admissions if row[0] >= since]
            if not decided:
                return None
            return sum(1 for row in decided if row[1]) / len(decided)
        if rule.metric == "p99_admission_latency":
            latencies = sorted(row[2] for row in self._admissions if row[0] >= since)
            if not latencies:
                return None
            index = min(len(latencies) - 1, math.ceil(0.99 * len(latencies)) - 1)
            return latencies[max(index, 0)]
        rows = [row[1] for row in self._samples.get(rule.metric, ()) if row[0] >= since]
        if not rows:
            return None
        return min(rows) if rule.bound == "floor" else max(rows)

    def evaluate(self, now):
        self._prune(now)
        fresh = []
        for rule in self.rules:
            value = self._value_of(rule, now)
            if value is None or not rule.violated(value):
                self._active.discard(rule.name)
                continue
            if rule.name in self._active:
                continue
            self._active.add(rule.name)
            breach = SloBreach(rule.name, rule.metric, rule.bound, rule.threshold, value, now)
            self.breaches.append(breach)
            fresh.append(breach)
        return fresh


def random_rules(rng, whole_run_share):
    """A rule set over every metric, each rule whole-run or windowed."""
    thresholds = {
        "accept_rate": lambda: rng.uniform(0.2, 0.8),
        "p99_admission_latency": lambda: rng.uniform(5.0, 40.0),
        "max_hold_age": lambda: rng.uniform(10.0, 90.0),
        "backlog_depth": lambda: float(rng.randint(1, 8)),
        "overcommit_proximity": lambda: rng.uniform(0.3, 0.9),
    }
    rules = []
    for i in range(rng.randint(1, 7)):
        metric = rng.choice(SLO_METRICS)
        window = math.inf if rng.random() < whole_run_share else rng.choice((5.0, 20.0, 75.0))
        bound = rng.choice(("floor", "ceiling"))
        rules.append(SloRule(f"r{i}", metric, bound, thresholds[metric](), window))
    return rules


def drive(seed, whole_run_share, steps=400):
    rng = random.Random(seed)
    rules = random_rules(rng, whole_run_share)
    fast, slow = SloWatchdog(rules), ScanWatchdog(rules)
    now = 0.0
    for _ in range(steps):
        now += rng.choice((0.0, 0.0, 0.5, 1.0, 3.0, 12.0))
        roll = rng.random()
        if roll < 0.5:
            accepted = rng.random() < 0.6
            # ties on purpose: the order statistic must pick the same value
            latency = rng.choice((0.0, 1.0, 2.5)) if rng.random() < 0.3 else rng.expovariate(0.1)
            fast.admission(now, accepted=accepted, latency=latency)
            slow.admission(now, accepted=accepted, latency=latency)
        elif roll < 0.8:
            metric = rng.choice(SAMPLE_METRICS)
            value = rng.uniform(0.0, 100.0) * rng.random()
            fast.sample(metric, now, value)
            slow.sample(metric, now, value)
        else:
            assert fast.evaluate(now) == slow.evaluate(now)
            assert fast.active == slow.active
    assert fast.evaluate(now) == slow.evaluate(now)
    assert fast.breaches == slow.breaches
    assert fast.active == slow.active
    return len(fast.breaches)


@pytest.mark.parametrize("whole_run_share", [0.0, 0.5, 1.0])
def test_running_aggregates_match_the_full_scan(whole_run_share):
    breaches = sum(drive(seed, whole_run_share) for seed in range(40))
    assert breaches > 0  # the streams do cross bounds


def test_whole_run_p99_is_the_sorted_rank_at_every_length():
    rng = random.Random(3)
    rule = SloRule("p99", "p99_admission_latency", "ceiling", math.inf)
    fast = SloWatchdog([rule])
    values = []
    for _ in range(1500):
        value = float(rng.randint(0, 50))
        values.append(value)
        fast.admission(0.0, accepted=True, latency=value)
        index = max(min(len(values) - 1, math.ceil(0.99 * len(values)) - 1), 0)
        assert fast._value_of(rule, 0.0) == sorted(values)[index]


def test_default_rules_keep_no_rows():
    from repro.obs.slo import default_slo_rules

    dog = SloWatchdog(default_slo_rules(backlog_limit=4))
    for i in range(100):
        dog.admission(float(i), accepted=True, latency=1.0)
        dog.sample("backlog_depth", float(i), 1.0)
        dog.evaluate(float(i))
    assert dog._recent_admissions == [] and dog._recent_samples == {}
    assert dog._admissions == 100
