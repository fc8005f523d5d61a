#!/usr/bin/env python3
"""A tour of the admission service plane (``repro.serve``).

The gateway library becomes a long-running HTTP/JSON service: this
script boots one on a loopback socket and walks the whole surface —

1. authenticated submits (API key → client identity), status reads, and
   the ``?explain=1`` causal story over HTTP;
2. cancellation releasing the unconsumed tail of a reservation;
3. a tripped per-client request quota (429 + ``Retry-After``);
4. an SLO breach (accept-rate floor) surfacing as 503 in ``/healthz``;
5. graceful drain and a journal-replayed successor that resumes with
   identical state and the next fresh reservation id.

Everything runs on the deterministic :class:`LogicalClock` (simulated
time = the largest client-observed instant), so the tour prints the same
story every time.  Artifacts land under ``examples/out/`` (gitignored).

Run:  python examples/serve_tour.py
"""

import asyncio
import json
from pathlib import Path

from repro.core import Platform
from repro.gateway import EdgeLimit
from repro.loadgen import ServiceClient
from repro.obs.slo import SloRule
from repro.serve import ServeApp, ServeConfig
from repro.serve.clock import LogicalClock

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
journal_path = out_dir / "serve_tour.journal.jsonl"
if journal_path.exists():
    journal_path.unlink()

config = ServeConfig(
    platform=Platform.uniform(4, 4, 100.0),
    num_shards=2,
    batch_size=4,
    keys={"key-alice": "alice", "key-bob": "bob"},
    quota=EdgeLimit(rate=1.0, burst=8.0),
    slo_rules=(
        SloRule(name="accept-floor", metric="accept_rate", bound="floor", threshold=0.9),
    ),
    journal_path=journal_path,
)


def submission(i: int, volume: float = 10.0, at: float = 0.0) -> dict:
    return {
        "ingress": i % 4,
        "egress": (i + 1) % 4,
        "volume": volume,
        "deadline": at + 900.0,
        "at": at,
    }


async def tour() -> None:
    app = ServeApp(config, clock=LogicalClock())
    host, port = await app.start()
    print(f"service listening on http://{host}:{port}")
    alice = ServiceClient(host, port, api_key="key-alice")
    await alice.connect()

    # -- submit / status / explain / cancel ---------------------------
    first = (await alice.request("POST", "/v1/reservations", payload=submission(0))).json()
    print(f"\nsubmit      -> rid {first['rid']} {first['outcome']}"
          f" (bw {first['allocation']['bw']:.3f} MB/s from {first['allocation']['sigma']:.0f}s)")

    status = (await alice.request("GET", f"/v1/reservations/{first['rid']}")).json()
    print(f"status      -> {status['outcome']}, client {status['client']}")

    explained = (
        await alice.request("GET", f"/v1/reservations/{first['rid']}?explain=1")
    ).json()
    story = explained["explain"].strip().splitlines()
    print("explain     ->", story[0])
    for line in story[1:4]:
        print("              ", line)

    cancel = (await alice.request("DELETE", f"/v1/reservations/{first['rid']}")).json()
    print(f"cancel      -> rid {cancel['rid']} released tail: {cancel['released']}")

    # -- trip the request quota ---------------------------------------
    refused = None
    for i in range(1, 12):
        resp = await alice.request("POST", "/v1/reservations", payload=submission(i))
        if resp.status == 429:
            refused = resp
            break
    assert refused is not None
    print(f"\nquota trip  -> 429 after burst, Retry-After {refused.headers['retry-after']}s")

    # -- breach the accept-rate SLO -----------------------------------
    # The keyring is closed (anonymous requests get 401), so the heavy
    # tenant is a second key with a fresh quota.
    bob = ServiceClient(host, port, api_key="key-bob")
    await bob.connect()
    for i in range(6):
        # 80 GB against 100 MB/s ports over a 900 s window: feasible on a
        # free port (min rate 88.9 MB/s), hopeless on one already carrying
        # a sibling — the repeats are rejected and the accept rate dives
        # under the 0.9 floor.
        await bob.request(
            "POST", "/v1/reservations", payload=submission(i, volume=80_000.0, at=30.0)
        )
    health = await bob.request("GET", "/healthz")
    verdict = health.json()["slo"]
    print(f"healthz     -> HTTP {health.status}, slo ok={verdict['ok']}, "
          f"active={verdict['active']}")
    for breach in verdict["breaches"][:1]:
        print(f"               breach: {breach['rule']} {breach['metric']}"
              f"={breach['value']:.2f} under floor {breach['threshold']}")

    metrics = (await bob.request("GET", "/metrics")).body.decode()
    line = next(l for l in metrics.splitlines() if l.startswith("serve_decisions_total"))
    print("metrics     ->", line)

    await alice.close()
    await bob.close()

    # -- graceful drain, journal-replayed successor -------------------
    await app.drain()
    snapshot = app.snapshot()
    print(f"\ndrained     -> {len(app.journal)} journal ops at {journal_path.name}")

    successor = ServeApp(config, clock=LogicalClock())
    same = successor.snapshot() == snapshot
    print(f"restart     -> snapshot equal: {same}, next rid {successor.snapshot()['next_rid']}")
    (out_dir / "serve_tour_state.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True, default=str) + "\n"
    )
    print(f"state saved -> {out_dir / 'serve_tour_state.json'}")


if __name__ == "__main__":
    asyncio.run(tour())
