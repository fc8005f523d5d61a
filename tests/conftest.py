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
