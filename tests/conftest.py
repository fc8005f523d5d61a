"""Shared fixtures."""

import pytest

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
