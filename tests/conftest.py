"""Shared fixtures."""

import numpy as np
import pytest

from repro.core import Request
from repro.core.capacity import BreakpointProfile
from repro.core.capacity.vector import VectorProfile

#: The production capacity class and the reference oracle it is tested against.
KERNELS = {"breakpoint": BreakpointProfile, "vector": VectorProfile}


@pytest.fixture
def ledger_kernel(request, monkeypatch):
    """Every ``PortLedger`` built in this test sits on the named kernel class.

    Use with ``parametrize("ledger_kernel", KERNELS, indirect=True)``.
    Production only ever builds ``BreakpointProfile``; ``"vector"`` swaps the
    oracle in under the ledger from the test's side, so ledger- and
    booking-level tests double as differential tests of the two classes.
    """
    monkeypatch.setattr("repro.core.ledger.make_profile", KERNELS[request.param])
    return KERNELS[request.param]


def without_protocol_records(snapshot):
    """A gateway snapshot minus the brokers' two-phase records.

    ``resolved`` / ``prepared`` exist only where the protocol ran: a
    chaos-off gateway books directly and leaves them empty, a gateway
    under a :class:`~repro.gateway.ChaosPolicy` (even an all-zero one)
    fills them.  Everything else — reservations, slices, holds, crashed,
    booked keys, stats — must be equal between the two.
    """
    return {
        **snapshot,
        "shards": [
            {k: v for k, v in shard.items() if k not in ("resolved", "prepared")}
            for shard in snapshot["shards"]
        ],
    }


def hotspot_stream(seed, n, ports=16, capacity=1000.0):
    """The ``serve_hot`` traffic shape: long transfers into four hot ports."""
    rng = np.random.default_rng([seed, 2])
    at = np.cumsum(rng.exponential(1.0, n))
    volume = np.exp(rng.uniform(np.log(1e3), np.log(2e5), n))
    window = np.maximum(rng.uniform(600.0, 7200.0, n), volume / capacity) + 60.0
    weights = np.where(np.arange(ports) < 4, 4.0, 1.0)
    weights /= weights.sum()
    ingress = rng.choice(ports, n, p=weights)
    egress = rng.choice(ports, n, p=weights)
    for rid in range(n):
        yield Request(
            rid=rid,
            ingress=int(ingress[rid]),
            egress=int(egress[rid]),
            volume=float(volume[rid]),
            t_start=float(at[rid]),
            t_end=float(at[rid] + window[rid]),
            max_rate=capacity,
        )


class CountedRule:
    """A bound rate rule that counts its evaluations; it repeats the
    ``monotone`` promise of the rule it wraps."""

    def __init__(self, rule):
        self.rule = rule
        self.monotone = rule.monotone
        self.calls = 0

    def __call__(self, sigma):
        self.calls += 1
        return self.rule(sigma)
