"""Seeded inputs for the stack benchmark (numpy only, nothing from ``repro``).

Every generator is a pure function of ``(seed, count)``: the same seed
gives byte-identical inputs (``digest`` is what the tests and the result
file pin), and the program under test only ever receives the generated
submissions — never the seed or the generator.

A submission is the JSON body of ``POST /v1/reservations``:
``{"ingress", "egress", "volume", "at", "deadline"}`` with ``at`` the
(simulated) arrival second and ``deadline`` absolute.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

#: The platform every workload runs on: 16x16 ports of 1000 MB/s
#: (``Platform.uniform(16, 16, 1000.0)``, the ``bench_serve`` platform).
PORTS = 16
CAPACITY = 1000.0

#: Mean simulated inter-arrival (seconds) of every stream.
MEAN_INTERARRIVAL = 1.0

#: Open-loop mix of ``serve_mixed_open``: operation kind -> share.
MIX = (("submit", 0.70), ("status", 0.10), ("cancel", 0.10), ("headroom", 0.10))


def _arrivals(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cumsum(rng.exponential(MEAN_INTERARRIVAL, n))


def _bodies(
    ingress: np.ndarray,
    egress: np.ndarray,
    volume: np.ndarray,
    at: np.ndarray,
    window: np.ndarray,
    floor: float,
) -> list[dict[str, Any]]:
    # A window is never shorter than the fastest feasible transfer, and
    # the floor rides on top: the service decides a wave at a clock
    # reading a few simulated seconds past the drawn arrival, so a
    # knife-edge window would flip to "invalid" and count as a failure.
    length = np.maximum(window, volume / CAPACITY) + floor
    return [
        {
            "ingress": int(ingress[i]),
            "egress": int(egress[i]),
            "volume": float(volume[i]),
            "at": float(at[i]),
            "deadline": float(at[i] + length[i]),
        }
        for i in range(len(at))
    ]


def light_stream(seed: int, n: int, *, volume_scale: float = 1.0) -> list[dict[str, Any]]:
    """Uncontended traffic: every decision takes the headroom fast path.

    Uniform port pairs, volumes U(1, 100) MB (times ``volume_scale``),
    windows U(30, 120) + 70 s.  Offered load is a few percent of port
    capacity, so accept is ~1.0 and the capacity kernel does almost
    nothing — per-request overhead is the whole cost.
    """
    rng = np.random.default_rng([seed, 1])
    at = _arrivals(rng, n)
    volume = rng.uniform(1.0, 100.0, n) * volume_scale
    window = rng.uniform(30.0, 120.0, n)
    ingress = rng.integers(0, PORTS, n)
    egress = rng.integers(0, PORTS, n)
    return _bodies(ingress, egress, volume, at, window, 70.0)


def hot_stream(seed: int, n: int) -> list[dict[str, Any]]:
    """Contended traffic: long transfers into four hot ports.

    Ports 0-3 are drawn 4x as often as the rest on both sides (no
    self-pairs), volumes are log-uniform(1e3, 2e5) MB and windows
    U(600, 7200) + 60 s, so about half the requests are refused and each
    decision scans hundreds of candidate starts over long timelines.
    """
    rng = np.random.default_rng([seed, 2])
    at = _arrivals(rng, n)
    volume = np.exp(rng.uniform(np.log(1e3), np.log(2e5), n))
    window = rng.uniform(600.0, 7200.0, n)
    weights = np.where(np.arange(PORTS) < 4, 4.0, 1.0)
    weights /= weights.sum()
    ingress = rng.choice(PORTS, n, p=weights)
    egress = rng.choice(PORTS, n, p=weights)
    clash = ingress == egress
    while clash.any():
        egress[clash] = rng.choice(PORTS, int(clash.sum()), p=weights)
        clash = ingress == egress
    return _bodies(ingress, egress, volume, at, window, 60.0)


def open_schedule(
    seed: int, stages: tuple[tuple[float, float], ...]
) -> list[tuple[float, str, int]]:
    """Poisson open-loop schedule: ``(due_s, kind, stage)`` per operation.

    ``stages`` is ``((seconds, ops_per_s), ...)``; ``due_s`` is wall
    seconds from the start of the timed window.  Kinds follow ``MIX``.
    """
    rng = np.random.default_rng([seed, 3])
    kinds = [kind for kind, _ in MIX]
    shares = [share for _, share in MIX]
    schedule: list[tuple[float, str, int]] = []
    origin = 0.0
    for stage, (seconds, rate) in enumerate(stages):
        # Draw a few more gaps than the stage can hold, keep those inside.
        gaps = rng.exponential(1.0 / rate, int(seconds * rate * 1.5) + 16)
        due = origin + np.cumsum(gaps)
        due = due[due < origin + seconds]
        drawn = rng.choice(len(kinds), len(due), p=shares)
        schedule.extend(
            (float(t), kinds[int(k)], stage) for t, k in zip(due, drawn)
        )
        origin += seconds
    return schedule


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON of generated inputs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
