"""One count, one source: the gateway's ``/metrics`` counters are its stats.

Every counter family the gateway's collector renders must equal the
:class:`~repro.gateway.GatewayStats` field it is read from — or, per
shard, the channel's own count — less the value when the handle bound,
after every operation of a seeded stream that uses every verb, under
message loss and mid-protocol broker crashes, across a checkpoint and a
``Gateway.resume`` onto a fresh handle.  Every field of the stats is
either rendered (:data:`COLLECTED`) or named in :data:`NOT_EXPORTED` with
the reason, so a new field fails here until someone decides which it is.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, Gateway, GatewayStats, Journal, Partition
from repro.obs import Telemetry
from repro.schedulers.retry import BackoffSchedule

#: Stats field -> the ``(family, labels)`` sample that shows it.
COLLECTED = {
    "accepted": ("gateway_submits_total", {"outcome": "accepted"}),
    "rejected": ("gateway_submits_total", {"outcome": "rejected"}),
    "local": ("gateway_admissions_total", {"path": "local"}),
    "cross_shard": ("gateway_admissions_total", {"path": "cross-shard"}),
    "fastpath_hits": ("gateway_fastpath_total", {"outcome": "hit"}),
    "batches": ("gateway_batches_total", {"ordering": "fifo"}),
    "prepare_retries": ("gateway_prepare_retries_total", {}),
    "twophase_aborts": ("gateway_twophase_aborts_total", {}),
    "holds_expired": ("gateway_holds_expired_total", {}),
    "backlogged": ("gateway_backlogged_total", {}),
    "readmitted": ("gateway_readmissions_total", {}),
    "aborted": ("gateway_aborts_total", {}),
    "displaced": ("gateway_displacements_total", {}),
    **{
        f"chaos_{name}": (f"gateway_chaos_{name}_total", {})
        for name in ("drops", "duplicates", "delays", "partitioned", "crashes")
    },
}

#: The stats fields ``/metrics`` does not show as such, and why.
NOT_EXPORTED = (
    ("submits", "taken at submit, before the decision gateway_submits_total counts"),
    ("edge_refused", "pushed per client as gateway_edge_refusals_total{client}"),
    ("retry_delay_total", "simulated seconds, not a count: part of each admission latency"),
    ("chaos_wait_total", "simulated seconds, not a count: part of each admission latency"),
    ("cancelled", "releasing cancels only; gateway_cancels_total{released} is pushed"),
    ("degradations", "pushed per side as gateway_degrades_total{side}"),
    ("reshaped", "also counts degrade-time reshapes; gateway_reshapes_total is the verb's"),
    ("crashes", "pushed per shard as gateway_broker_crashes_total{shard}"),
    ("restarts", "no family: each restart is a gateway.restart event"),
    ("shard_unreachable", "a reject reason: gateway_rejects_total{reason=...}"),
    ("compensations", "protocol bookkeeping that only snapshots carry; no family"),
    ("stranded_holds", "protocol bookkeeping that only snapshots carry; no family"),
    ("recovered_deliveries", "per edge as gateway_channel_recovered_total"),
)

#: ``ChannelStats`` field -> its per-shard family.
CHANNEL = {
    "calls": "gateway_channel_deliveries_total",
    "drops": "gateway_channel_dropped_total",
    "duplicates": "gateway_channel_duplicated_total",
    "delays": "gateway_channel_delayed_total",
    "partitioned": "gateway_channel_partitioned_total",
    "crashes": "gateway_channel_crashes_total",
    "recovered": "gateway_channel_recovered_total",
}

#: The lossy mesh also cuts shard 1 off for a minute, so every chaos count moves.
CHAOS = {
    "lossy": lambda seed: replace(
        ChaosPolicy.lossy(seed=seed, drop=0.3), partitions=(Partition(1, 100.0, 160.0),)
    ),
    "crash_mid_2pc": lambda seed: ChaosPolicy.crash_mid_2pc(seed=seed),
}
PORTS = 4
STEPS = 36

#: Hypothesis's examples per case: five, or a fortieth of the profile's
#: (the ``deep`` profile's 2000 make fifty).
GATE = settings(max_examples=max(5, settings().max_examples // 40), deadline=None)


def sample(telemetry, family, labels):
    metric = telemetry.metrics.get(family)
    return 0.0 if metric is None else metric.value(**labels)


def counts(gateway):
    """The values the collector reads, by stats field and ``(field, shard)``."""
    seen = {field: getattr(gateway.stats, field) for field in COLLECTED}
    seen["misses"] = gateway.stats.local + gateway.stats.cross_shard - gateway.stats.fastpath_hits
    for channel in gateway.coordinator.channels:
        for field in CHANNEL:
            seen[field, channel.shard_id] = getattr(channel.stats, field)
    return seen


def assert_in_step(gateway, telemetry, bound):
    """Every collected family equals its count less the count at binding."""
    now = counts(gateway)
    shown = {field: sample(telemetry, *COLLECTED[field]) for field in COLLECTED}
    shown["misses"] = sample(telemetry, "gateway_fastpath_total", {"outcome": "miss"})
    for channel in gateway.coordinator.channels:
        for field, family in CHANNEL.items():
            key = (field, channel.shard_id)
            shown[key] = sample(telemetry, family, {"shard": channel.shard_id})
    assert shown == {key: float(now[key] - bound[key]) for key in now}


def stream(seed, shards):
    """``(verb, kwargs)`` pairs using every verb; rids may be unknown."""
    rng = random.Random(seed)
    now, ops = 0.0, []
    for step in range(STEPS):
        now += rng.uniform(0.0, 12.0)
        roll = rng.random()
        if roll < 0.5:
            deadline = now + rng.uniform(80.0, 300.0)
            ops.append((
                "submit",
                dict(
                    ingress=rng.randrange(PORTS), egress=rng.randrange(PORTS),
                    volume=rng.uniform(2_000.0, 30_000.0), deadline=deadline,
                ),
            ))  # fmt: skip
        elif roll < 0.57:
            ops.append(("cancel", {"rid": rng.randrange(step + 1)}))
        elif roll < 0.64:
            ops.append(("abort", {"rid": rng.randrange(step + 1)}))
        elif roll < 0.7:
            ops.append(("reshape", {"rid": rng.randrange(step + 1)}))
        elif roll < 0.78:
            start = now + rng.uniform(0.0, 20.0)
            ops.append((
                "degrade",
                dict(
                    side=rng.choice(("ingress", "egress")), port=rng.randrange(PORTS),
                    amount=rng.uniform(300.0, 900.0), start=start, end=start + 120.0,
                ),
            ))  # fmt: skip
        elif roll < 0.86:
            ops.append(("crash_broker", {"shard": rng.randrange(shards)}))
        elif roll < 0.94:
            ops.append(("restart_broker", {"shard": rng.randrange(shards)}))
        else:
            ops.append(("drain", {}))
        ops[-1][1]["now"] = now
    return ops


def apply(gateway, verb, kwargs):
    try:
        if verb == "restart_broker" and not gateway.brokers[kwargs["shard"]].crashed:
            return
        getattr(gateway, verb)(**kwargs)
    except (ReproError, KeyError):
        pass


def run(seed, shards, chaos):
    """Drive the stream, checkpoint and resume halfway; check after every
    operation.  Returns the counts the two handles saw grow."""
    telemetry = Telemetry()
    gateway = Gateway(
        Platform.uniform(PORTS, PORTS, 1000.0),
        num_shards=shards,
        batch_size=2,
        chaos=CHAOS[chaos](seed),
        backoff=BackoffSchedule(base=1.0, max_attempts=3),
        rpc_deadline=60.0,
        backlog_limit=4,
        hold_ttl=40.0,
        malleable=True,
        journal=Journal(),
        telemetry=telemetry,
    )
    ops = stream(seed, shards)
    half = len(ops) // 2
    bound = counts(gateway)
    grown = set()
    for k, (verb, kwargs) in enumerate(ops):
        if k == half:
            gateway.drain(gateway.now)
            gateway.checkpoint()
            assert_in_step(gateway, telemetry, bound)
            grown |= {key for key, value in counts(gateway).items() if value > bound[key]}
            telemetry = Telemetry()
            gateway = Gateway.resume(gateway.journal, telemetry=telemetry)
            bound = counts(gateway)
        apply(gateway, verb, kwargs)
        assert_in_step(gateway, telemetry, bound)
    gateway.drain(gateway.now + 100.0)
    assert_in_step(gateway, telemetry, bound)
    return grown | {key for key, value in counts(gateway).items() if value > bound[key]}


@pytest.mark.parametrize("chaos", sorted(CHAOS))
@pytest.mark.parametrize("shards", [2, 4])
@GATE
@given(seed=st.integers(0, 2**32 - 1))
def test_every_collected_family_is_its_count_since_binding(shards, chaos, seed):
    run(seed, shards, chaos)


def test_the_stream_moves_every_collected_count():
    """The gate above is only as good as the counts its stream moves."""
    grown = set()
    for seed in range(6):
        for chaos in CHAOS:
            grown |= run(seed, 2, chaos) | run(seed, 4, chaos)
    assert set(COLLECTED) | {"misses"} <= grown
    assert {key[0] for key in grown if isinstance(key, tuple)} == set(CHANNEL)


def test_every_stats_field_is_collected_or_named_not_exported():
    declared = [field for field, _ in NOT_EXPORTED]
    assert len(set(declared)) == len(declared)
    assert not set(declared) & set(COLLECTED)
    assert set(GatewayStats().as_dict()) == set(COLLECTED) | set(declared)
