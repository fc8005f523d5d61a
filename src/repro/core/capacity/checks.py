"""Canonical slack conventions for capacity comparisons.

Every layer that compares committed bandwidth against a port capacity must
use the same numerical slack, or two code paths could disagree about one
admission.  These helpers pin the two forms that exist in the codebase —
bit-for-bit the historical expressions, so routing a call site through
them never flips a decision:

- :func:`fits_under` — the ledger/broker form
  ``usage + bw <= capacity + capacity * CAPACITY_SLACK``, which every
  ledger-backed scheduler and the gateway decide by;
- :func:`slack_capacity` — the slot-packing form
  ``capacity * (1 + CAPACITY_SLACK)`` used as a per-interval budget, now
  only by the ``*-slots`` family (:class:`~repro.schedulers.rigid.SlotsScheduler`);
- :data:`UTILISATION_LIMIT` — the dimensionless threshold
  ``1 + CAPACITY_SLACK`` for utilisation-cost packing, used only by WINDOW
  (Algorithm 3, :class:`~repro.schedulers.flexible.WindowFlexible`), which
  then commits to its ledger unchecked.

The two forms differ by at most one ulp; they are kept distinct precisely
so that moving a call site into the kernel is decision-invariant.
"""

from __future__ import annotations

from .interface import CAPACITY_SLACK

__all__ = ["CAPACITY_SLACK", "UTILISATION_LIMIT", "fits_under", "slack_capacity"]

#: Utilisation-cost acceptance threshold: a candidate whose worst
#: post-acceptance port utilisation exceeds this overflows a port.
UTILISATION_LIMIT: float = 1.0 + CAPACITY_SLACK


def fits_under(usage: float, bw: float, capacity: float) -> bool:
    """Would ``bw`` on top of ``usage`` stay within ``capacity``?

    The ledger form of the slack convention:
    ``usage + bw <= capacity + capacity * CAPACITY_SLACK``.
    """
    return usage + bw <= capacity + capacity * CAPACITY_SLACK


def slack_capacity(capacity: float) -> float:
    """``capacity`` widened by the canonical slack (per-interval budgets)."""
    return capacity * (1.0 + CAPACITY_SLACK)
