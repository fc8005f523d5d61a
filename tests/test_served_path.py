"""The served path and the library path decide alike.

A submission reaches the gateway by one of two entry points: the serve
edge parses and checks it, then hands a wave of scalars to
``Gateway.submit_checked``; a library caller hands keywords to
``Gateway.submit``.  Both go through one validator and one enqueue, and
this differential holds them to it.  Over Hypothesis-drawn seeds, one
side POSTs seeded waves to ``/v1/reservations/batch`` through
``ServeApp.dispatch``; the other submits the same entries one by one
through ``Gateway.submit`` on a twin gateway, draining each wave as
``submit_many`` does.  Every wave's decision payloads, the final
snapshots and the journal bytes must be equal.

The streams mix ``max_rate`` given and absent (its default is the pair's
bottleneck, on a platform whose ports differ), stepwise ``profile``
submissions on a ``malleable`` gateway, stale and unknown-port entries
mid-wave (``outcome: "invalid"`` in their own slot), a per-client volume
edge, and a lossy chaos mesh with a broker crash whose rejections park
in the backlog and are re-admitted after the restart.
"""

import asyncio
import json
import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidRequestError
from repro.core.platform import Platform
from repro.gateway import ChaosPolicy, EdgeLimit, Gateway, Journal
from repro.schedulers.retry import BackoffSchedule
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock
from repro.serve.http import HttpRequest

#: Ports of unequal capacity, so that a ``max_rate`` default other than
#: the pair's bottleneck changes the decision.
PLATFORM = Platform([400.0, 900.0, 1500.0, 600.0], [700.0, 300.0, 1200.0, 1000.0])

#: The gateway settings a ``ServeConfig`` holds, per variant.
VARIANTS = {
    "plain": dict(num_shards=2, batch_size=3),
    "malleable": dict(num_shards=2, batch_size=4, malleable=True, ordering="min-laxity"),
    "chaos": dict(
        num_shards=4, batch_size=4, hold_ttl=120.0, backlog_limit=8,
        edge=EdgeLimit(rate=5e3, burst=6e4),
    ),  # fmt: skip
}

#: What ``ServeConfig`` cannot ask for: the chaos variant's twin is built
#: with it, and the served side resumes it from the journal header.
CHAOS = dict(
    chaos=ChaosPolicy.lossy(seed=5),
    backoff=BackoffSchedule(base=1.0, max_attempts=4),
    rpc_deadline=60.0,
)


def entries(rng: random.Random, t: float, malleable: bool) -> list[dict]:
    """One wave's submission bodies at ``t``: some with ``max_rate``, some
    stepwise (on a malleable gateway), one in five malformed."""
    wave = []
    for _ in range(rng.randint(1, 9)):
        window = rng.uniform(20.0, 120.0)
        body = {
            "ingress": rng.randrange(4),
            "egress": rng.randrange(4),
            "volume": rng.uniform(0.05, 0.5) * 400.0 * window,
            "deadline": t + window,
            "at": t,
        }
        roll = rng.random()
        if roll < 0.3:
            body["max_rate"] = rng.uniform(0.6, 1.5) * body["volume"] / window
        elif roll < 0.45 and malleable:
            # Two steps over the window, delivering exactly the volume.
            cut, low, high = t + window / 2, rng.uniform(10.0, 150.0), rng.uniform(10.0, 150.0)
            body["profile"] = [[t, cut, low], [cut, t + window, high]]
            body["volume"] = (cut - t) * low + (t + window - cut) * high
        elif roll < 0.55:
            body["deadline"] = t - 1.0  # stale: its window closed before it arrived
        elif roll < 0.6:
            body["egress"] = 7  # no such port
        wave.append(body)
    return wave


def library_payload(ticket, now: float) -> dict:
    """What the serve edge answers for ``ticket``, built from the library's
    ``Ticket`` view (its request, allocation and enum states)."""
    rid = ticket.rid
    if ticket.edge_refused:
        retry = ticket.retry_after
        return {
            "rid": rid,
            "outcome": "edge-refused",
            "retry_after": retry if retry is not None and math.isfinite(retry) else None,
        }
    alloc = ticket.allocation
    if alloc is None:
        payload = {"rid": rid, "outcome": "rejected", "state": "rejected"}
    else:
        payload = {"rid": rid, "outcome": "accepted", "state": ticket.state(now).value}
        payload["allocation"] = {
            "sigma": alloc.sigma,
            "tau": alloc.tau,
            "bw": alloc.bw,
            "ingress": alloc.ingress,
            "egress": alloc.egress,
        }
        if alloc.profile is not None:
            payload["allocation"]["profile"] = alloc.profile.to_list()
    if ticket.reject_reason is not None:
        payload["reason"] = ticket.reject_reason.value
    return payload


def library_wave(gateway: Gateway, bodies: list[dict], now: float) -> list[dict]:
    """``bodies`` one by one through ``Gateway.submit`` at ``now``, the
    open batch drained after them: the answers in the served shape."""
    tickets = []
    for body in bodies:
        fields = {k: v for k, v in body.items() if k != "at"}
        try:
            tickets.append(gateway.submit(**fields, client="anonymous", now=now))
        except InvalidRequestError:
            tickets.append(None)
    if len(gateway.batcher):  # as submit_many closes its wave
        gateway.drain(now)
    return [
        {"outcome": "invalid"} if t is None else library_payload(t, now) for t in tickets
    ]


def served_wave(app: ServeApp, bodies: list[dict]) -> list[dict]:
    """``bodies`` as one batch POST; invalid slots keep only their outcome."""
    raw = json.dumps({"submissions": bodies}).encode()
    request = HttpRequest("POST", "/v1/reservations/batch", {}, {}, raw)
    response = asyncio.run(app.dispatch(request))
    assert response.status == 200, response.payload
    return [
        {"outcome": "invalid"} if d["outcome"] == "invalid" else d
        for d in response.payload["decisions"]
    ]


def run_both(seed: int, variant: str, workdir: Path):
    """Run one stream both ways and hold them equal; the twin's stats."""
    settings_ = VARIANTS[variant]
    extra = CHAOS if variant == "chaos" else {}
    served_path, twin_path = workdir / "served.jsonl", workdir / "twin.jsonl"
    if extra:
        # The served gateway resumes the chaos settings from this header.
        Gateway(PLATFORM, journal=Journal(path=served_path), **settings_, **extra)
    config = ServeConfig(
        platform=PLATFORM, journal_path=served_path, slo_rules=(), max_wave=512, **settings_
    )
    app = ServeApp(config, clock=LogicalClock())
    twin = Gateway(PLATFORM, journal=Journal(path=twin_path), **settings_, **extra)
    rng = random.Random(seed)
    t = 0.0
    for wave in range(24):
        t += rng.expovariate(0.3)
        app.clock.advance(t)
        if variant == "chaos" and wave in (6, 12):
            # A broker crash parks infrastructure rejections in the backlog;
            # the restart re-admits them.
            for gateway in (app.gateway, twin):
                if wave == 6:
                    gateway.crash_broker(1, now=t)
                else:
                    gateway.restart_broker(1, now=t)
        bodies = entries(rng, t, settings_.get("malleable", False))
        assert served_wave(app, bodies) == library_wave(twin, bodies, t), f"wave {wave}"
    assert app.gateway.snapshot() == twin.snapshot()
    app.journal.close()
    twin.journal.close()
    served = served_path.read_bytes()
    assert served.count(b"\n") > 24
    assert served == twin_path.read_bytes()
    return twin.stats


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), variant=st.sampled_from(sorted(VARIANTS)))
def test_a_served_wave_decides_as_library_submits_do(seed, variant):
    with tempfile.TemporaryDirectory() as workdir:
        run_both(seed, variant, Path(workdir))


def test_every_variant_at_a_fixed_seed(tmp_path):
    """Each variant once, whatever Hypothesis draws.

    At this seed the chaos stream re-admits parked rejections and the edge
    refuses some entries, so the chaos variant's equalities are not vacuous
    (not every drawn seed reaches both: 57 and 109 do not).
    """
    for variant in VARIANTS:
        (tmp_path / variant).mkdir()
        stats = run_both(11, variant, tmp_path / variant)
        if variant == "chaos":
            assert stats.readmitted > 0 and stats.edge_refused > 0
