"""docs/OBSERVABILITY.md's metric catalog names every family the planes register.

A short seeded stream of every lifecycle verb runs through a default
:class:`~repro.gateway.Gateway` and a sharded, batched, edge-limited one
(each on its own enabled telemetry handle), and one gateway cell runs
under a partition chaos policy.  Every
metric family those handles end up holding must appear in the catalog
table, brace patterns (``gateway_chaos_{drops,delays}_total``) expanded.
"""

import itertools
import random
import re
from pathlib import Path

from repro.core.errors import ReproError
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, EdgeLimit, Gateway
from repro.obs import Telemetry

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def expand(pattern):
    """``a_{x,y}_b`` -> ``[a_x_b, a_y_b]`` (every brace group, in order)."""
    parts = re.split(r"\{([^}]*)\}", pattern)
    choices = [[p] if i % 2 == 0 else p.split(",") for i, p in enumerate(parts)]
    return ["".join(combo) for combo in itertools.product(*choices)]


def catalog():
    text = DOC.read_text(encoding="utf-8")
    section = text.split("### Metric catalog", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            for pattern in re.findall(r"`([a-z_{},]+)`", first_cell):
                names.update(expand(pattern))
    return names


def drive(plane, seed, *, brokers=False):
    """Every lifecycle verb, seeded; refusals (unknown rid, ...) are fine."""
    rng = random.Random(seed)
    now = 0.0
    for step in range(120):
        now += rng.uniform(0.0, 5.0)
        roll = rng.random()
        try:
            if roll < 0.55:
                fields = dict(
                    ingress=rng.randrange(4),
                    egress=rng.randrange(4),
                    volume=rng.uniform(1_000.0, 60_000.0),
                    deadline=now + rng.uniform(60.0, 400.0),
                    now=now,
                )
                if rng.random() < 0.2:
                    t0 = now + 1.0
                    fields["volume"] = 50.0 * 20.0
                    fields["profile"] = [(t0, t0 + 20.0, 50.0)]
                plane.submit(**fields)
            elif roll < 0.65:
                plane.cancel(rng.randrange(step + 1), now=now)
            elif roll < 0.75:
                plane.abort(rng.randrange(step + 1), now=now)
            elif roll < 0.82:
                plane.reshape(rng.randrange(step + 1), now=now)
            elif roll < 0.9:
                start = now + rng.uniform(0.0, 20.0)
                plane.degrade(
                    side=rng.choice(("ingress", "egress")),
                    port=rng.randrange(4),
                    amount=rng.uniform(300.0, 1000.0),
                    start=start,
                    end=start + 100.0,
                    now=now,
                )
            elif brokers and roll < 0.95:
                plane.crash_broker(rng.randrange(plane.num_shards), now=now)
            elif brokers:
                for shard, broker in enumerate(plane.brokers):
                    if broker.crashed:
                        plane.restart_broker(shard, now=now)
        except (ReproError, KeyError, ValueError):
            pass
    plane.drain(now + 1.0)


def registered(telemetry):
    return set(telemetry.metrics.names())


def test_every_family_the_planes_register_is_in_the_catalog():
    platform = Platform.uniform(4, 4, 1000.0)
    families = set()
    for seed in (1, 2):
        telemetry = Telemetry()
        drive(Gateway(platform, malleable=True, telemetry=telemetry), seed)
        families |= registered(telemetry)
        telemetry = Telemetry()
        gateway = Gateway(
            platform,
            num_shards=2,
            batch_size=2,
            backlog_limit=4,
            malleable=True,
            edge=EdgeLimit(rate=200.0, burst=60_000.0),
            telemetry=telemetry,
        )
        drive(gateway, seed, brokers=True)
        families |= registered(telemetry)
    telemetry = Telemetry()
    partitioned = Gateway(
        platform,
        num_shards=2,
        batch_size=2,
        backlog_limit=4,
        rpc_deadline=60.0,
        chaos=ChaosPolicy.with_partition(1, 50.0, 250.0, seed=3),
        telemetry=telemetry,
    )
    drive(partitioned, 3, brokers=True)
    families |= registered(telemetry)

    # the stream reached the families the catalog used to miss
    assert {
        "gateway_aborts_total",
        "gateway_admission_latency_seconds",
        "gateway_backlogged_total",
        "gateway_chaos_partitioned_total",
        "gateway_fastpath_total",
        "gateway_reshapes_total",
    } <= families
    assert not any(name.startswith("service_") for name in families)
    missing = sorted(families - catalog())
    assert not missing, f"metric families missing from {DOC.name}'s catalog: {missing}"


def test_brace_patterns_expand():
    assert expand("a_{x,y}_b") == ["a_x_b", "a_y_b"]
    assert expand("plain_total") == ["plain_total"]
