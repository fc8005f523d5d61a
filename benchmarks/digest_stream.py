"""Decision digests: one SHA-256 per cell of one seeded operation stream.

A change that must not move a decision is shown to move none by running
this script at the parent commit and at the change and comparing the
printed lines::

    python benchmarks/digest_stream.py --seed 3
    python benchmarks/digest_stream.py --quick

The stream (:func:`make_stream`) mixes constant and one- or two-segment
profile submits, cancel, abort, reshape, degrade, broker crash/restart
and a final drain.  It runs through 20 cells: the gateway batching by 3 at
1/2/4 shards × ``malleable`` off/on × {no chaos, ``lossy``,
``crash_mid_2pc``}, plus the default gateway (one shard, unbatched — the
``service`` cells) at ``malleable`` off/on.  A cell's
digest covers ``snapshot()`` after every operation (and any refusal it
raised), the journal bytes, and the :class:`~repro.obs.artifact.RunTelemetry`
JSON of the cell's telemetry handle, whose caps (:data:`MAX_EVENTS`,
:data:`MAX_SPANS`) evict — so "exports byte-identical" is the same
comparison as "decisions unchanged".  Every cell is also replayed from its
journal; the script exits 1 when a replay's snapshot differs from the
cell's final one.  ``--quick`` runs a short stream (the CI form).

The program is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.errors import ReproError  # noqa: E402
from repro.core.platform import Platform  # noqa: E402
from repro.gateway import ChaosPolicy, Gateway, Journal  # noqa: E402
from repro.obs import RunTelemetry, Telemetry  # noqa: E402

PORTS = 6
CAPACITY = 100.0
#: Telemetry caps of every cell: small enough that the rings evict.
MAX_EVENTS = 97
MAX_SPANS = 211
CHAOS = {
    "none": lambda seed: None,
    "lossy": lambda seed: ChaosPolicy.lossy(seed=seed),
    "crash_mid_2pc": lambda seed: ChaosPolicy.crash_mid_2pc(seed=seed),
}
#: Operation kinds and their shares of the stream.
MIX = (
    ("submit", 0.45),
    ("profile", 0.15),
    ("cancel", 0.08),
    ("abort", 0.08),
    ("reshape", 0.08),
    ("degrade", 0.06),
    ("crash", 0.04),
    ("drain", 0.06),
)


def cells() -> list[tuple[str, int, bool, str]]:
    """``(name, shards, malleable, chaos)``; ``shards == 0`` is the default gateway."""
    out = [
        (f"gateway-s{shards}-{'m' if malleable else 'c'}-{chaos}", shards, malleable, chaos)
        for shards in (1, 2, 4)
        for malleable in (False, True)
        for chaos in CHAOS
    ]
    out += [(f"service-{'m' if m else 'c'}", 0, m, "none") for m in (False, True)]
    return out


def make_stream(seed: int, n: int) -> list[tuple[Any, ...]]:
    """``n`` operations ``(kind, now, ...)`` at non-decreasing instants.

    A broker crash is followed one to four operations later by a restart of
    every crashed broker; the cancel / abort / reshape target is a rid among
    the submissions so far (a rebooking shifts later rids, and a rid a
    plane does not know is refused, which the digest records).
    """
    rng = np.random.default_rng([seed, 26])
    kinds = [kind for kind, _ in MIX]
    share = np.array([p for _, p in MIX])
    now = 0.0
    submits = 0
    restart: tuple[int, int] | None = None  # (operations left, shard)
    ops: list[tuple[Any, ...]] = []
    while len(ops) < n:
        now += float(rng.exponential(4.0))
        if restart is not None and restart[0] == 0:
            ops.append(("restart", now, restart[1]))
            restart = None
            continue
        if restart is not None:
            restart = (restart[0] - 1, restart[1])
        kind = kinds[int(rng.choice(len(kinds), p=share / share.sum()))]
        if kind in ("submit", "profile"):
            ingress, egress = (int(p) for p in rng.choice(PORTS, 2, replace=False))
            volume = float(rng.uniform(100.0, 4000.0))
            deadline = now + volume / CAPACITY + float(rng.uniform(10.0, 240.0))
            segments = None
            if kind == "profile":
                t0 = now + float(rng.uniform(0.0, 30.0))
                rate = float(rng.uniform(20.0, CAPACITY))
                if rng.random() < 0.5:
                    segments = [[t0, t0 + volume / rate, rate]]
                else:
                    half = volume / 2.0
                    t1 = t0 + half / rate
                    segments = [[t0, t1, rate], [t1, t1 + half / (rate / 2.0), rate / 2.0]]
            ops.append(("submit", now, ingress, egress, volume, deadline, segments))
            submits += 1
        elif kind == "degrade":
            start = now + float(rng.uniform(0.0, 60.0))
            ops.append((
                "degrade", now, "ingress" if rng.random() < 0.5 else "egress",
                int(rng.integers(PORTS)), float(rng.uniform(10.0, 70.0)),
                start, start + float(rng.uniform(5.0, 120.0)),
            ))  # fmt: skip
        elif kind in ("cancel", "abort", "reshape"):
            ops.append((kind, now, int(rng.integers(max(submits, 1)))))
        elif kind == "crash" and restart is None:
            shard = int(rng.integers(4))
            ops.append(("crash", now, shard))
            restart = (int(rng.integers(1, 5)), shard)
        elif kind == "drain":
            ops.append(("drain", now))
    return ops


def build(shards: int, malleable: bool, chaos: str, seed: int) -> Gateway:
    platform = Platform.uniform(PORTS, PORTS, CAPACITY)
    telemetry = Telemetry(max_events=MAX_EVENTS, max_spans=MAX_SPANS)
    if shards == 0:
        return Gateway(
            platform, backlog_limit=4, malleable=malleable, journal=Journal(), telemetry=telemetry
        )
    return Gateway(
        platform,
        num_shards=shards,
        batch_size=3,
        chaos=CHAOS[chaos](seed),
        backlog_limit=4,
        malleable=malleable,
        journal=Journal(),
        telemetry=telemetry,
    )


def apply(plane: Gateway, op: tuple[Any, ...]) -> None:
    kind, now = op[0], op[1]
    if kind == "submit":
        _, _, ingress, egress, volume, deadline, segments = op
        plane.submit(
            ingress=ingress, egress=egress, volume=volume, deadline=deadline, now=now,
            profile=segments,
        )  # fmt: skip
    elif kind == "degrade":
        _, _, side, port, amount, start, end = op
        plane.degrade(side=side, port=port, amount=amount, start=start, end=end, now=now)
    elif kind in ("cancel", "abort", "reshape"):
        getattr(plane, kind)(op[2], now=now)
    elif kind == "crash":
        plane.crash_broker(op[2] % plane.num_shards, now=now)
    elif kind == "restart":  # brokers the chaos policy crashed come back too
        for shard, broker in enumerate(plane.brokers):
            if broker.crashed:
                plane.restart_broker(shard, now=now)
    else:
        plane.drain(now)


def run_cell(cell: tuple[str, int, bool, str], ops: list[tuple[Any, ...]], seed: int) -> tuple[str, bool]:
    """``(digest, replay_ok)`` of one cell over ``ops``."""
    _, shards, malleable, chaos = cell
    plane = build(shards, malleable, chaos, seed)
    digest = hashlib.sha256()
    end = ops[-1][1] + 1.0 if ops else 0.0
    # The stream may stop inside an outage: restart, then decide what is open.
    for op in [*ops, ("restart", end, 0), ("drain", end)]:
        try:
            apply(plane, op)
        except (ReproError, KeyError, ValueError) as exc:
            digest.update(f"refused {type(exc).__name__}\n".encode())
        digest.update(json.dumps(plane.snapshot(), sort_keys=True, default=str).encode())
    digest.update(plane.journal.to_jsonl().encode())
    artifact = RunTelemetry(cell[0], meta={"seed": seed})
    artifact.capture("cell", plane.telemetry)
    digest.update(artifact.to_json().encode())
    replayed = type(plane).replay(plane.journal)
    return digest.hexdigest(), replayed.snapshot() == plane.snapshot()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--ops", type=int, default=400)
    parser.add_argument("--quick", action="store_true", help="a 120-operation stream")
    args = parser.parse_args(argv)
    ops = make_stream(args.seed, 120 if args.quick else args.ops)
    failed = []
    for cell in cells():
        digest, replay_ok = run_cell(cell, ops, args.seed)
        print(f"{cell[0]:<28} {digest}")
        if not replay_ok:
            failed.append(cell[0])
    if failed:
        print(f"journal replay diverged: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
