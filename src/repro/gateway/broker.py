"""One shard broker: authoritative owner of its ports' ledger slices.

A :class:`ShardBroker` holds the :class:`~repro.core.ledger.Port` (usage
and degradation timelines) of every access point its shard owns (see
:class:`~repro.gateway.sharding.ShardMap`) and is the **only** component
allowed to mutate them — gridlint rule GL004 enforces the boundary.  All
state a broker carries:

- the owned ports (committed bookings + registered degradations);
- the **prepare-holds** of in-flight two-phase reservations — capacity
  pinned on one side while the coordinator secures the other.  Holds are
  volatile: a broker crash wipes them (the capacity returns), while
  committed bookings survive, mirroring a write-ahead-logged store that
  loses only its in-memory transaction table.

Every capacity answer and every usage change is the port's own
(:meth:`Port.fits <repro.core.ledger.Port.fits>` / :meth:`Port.add
<repro.core.ledger.Port.add>`, or both at once through :meth:`Port.book
<repro.core.ledger.Port.book>`): the Eq. 1 test and the writes a
:class:`~repro.core.ledger.PortLedger` makes, not a fork.  A
booking arrives as its ``(t0, t1, rate)`` segments, one for a constant
rate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from ..core.capacity import CapacityProfile
from ..core.errors import CapacityError, ConfigurationError, ReproError
from ..core.ledger import Degradation, Port
from ..core.profile import Segment
from ..units import seconds_eq
from .sharding import ShardMap

__all__ = ["BrokerUnavailable", "Hold", "ShardBroker", "hold_expired"]


def hold_expired(expires: float, now: float) -> bool:
    """Has a hold's TTL deadline passed at ``now``?

    A deadline exactly *at* ``now`` counts as expired, and so does one
    within :func:`repro.units.seconds_eq` noise of it — so the broker
    sweep and the coordinator sweep (which delegates to it) classify the
    boundary identically instead of depending on float round-off.
    """
    return expires <= now or seconds_eq(expires, now)


class BrokerUnavailable(ReproError):
    """The addressed shard broker is crashed and cannot serve the call."""


@dataclass(frozen=True, slots=True)
class Hold:
    """Capacity pinned on one port by phase one of a two-phase reservation."""

    hold_id: int
    side: str
    port: int
    #: The ``(t0, t1, rate)`` steps pinned — one for a constant rate.
    segments: tuple[Segment, ...]
    rid: int
    #: Absolute sim time at which an uncommitted hold self-releases — the
    #: timeout-abort that keeps a crashed *coordinator* from stranding
    #: capacity on a healthy broker.
    expires: float

    def row(self) -> dict[str, object]:
        """The hold's ``snapshot()`` row: span and peak rate, plus the
        ``segments`` themselves only when there is more than one."""
        steps = self.segments
        return {
            "side": self.side,
            "port": self.port,
            "t0": steps[0][0],
            "t1": steps[-1][1],
            "bw": max(rate for _, _, rate in steps),
            "rid": self.rid,
            "expires": self.expires,
            **({"segments": [list(s) for s in steps]} if len(steps) > 1 else {}),
        }


class ShardBroker:
    """Owns and serves the ledger slices of one shard's access points."""

    def __init__(self, shard_id: int, shard_map: ShardMap) -> None:
        self.shard_id = shard_id
        self.platform = platform = shard_map.platform
        owned_in, owned_out = shard_map.ports_of(shard_id)
        #: Every owned access point: the ownership check and the state
        #: lookup of every call are one probe.
        self._ports: dict[tuple[str, int], Port] = {
            **{("ingress", p): Port(platform.bin(p)) for p in owned_in},
            **{("egress", p): Port(platform.bout(p)) for p in owned_out},
        }
        self._holds: dict[int, Hold] = {}
        #: The id the next granted hold takes.
        self._next_hold = 0
        #: Idempotency tables for at-least-once delivery: a replayed
        #: ``prepare`` finds its first answer here instead of double-
        #: booking, a replayed ``book_pair`` finds its key already
        #: recorded, and a replayed ``commit`` consults the terminal
        #: resolution of its hold.  ``_prepared`` is volatile transaction
        #: state (a crash clears it, like the holds it guards);
        #: ``_booked`` and ``_resolution`` model WAL-backed records — they
        #: survive crashes exactly because the bookings they witness do.
        self._prepared: dict[object, Hold | None] = {}
        self._booked: set[object] = set()
        self._resolution: dict[int, str] = {}
        self.crashed = False
        self.holds_wiped = 0
        #: No live hold expires before this (``None``: none is live); the
        #: coordinator's sweep asks this broker only once it is due.
        self.due: float | None = None

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owns(self, side: str, port: int) -> bool:
        """Does this shard own ``port`` on ``side``?"""
        if side not in ("ingress", "egress"):
            raise ConfigurationError(f"side must be 'ingress' or 'egress', got {side!r}")
        return (side, port) in self._ports

    def _not_owned(self, side: str, port: int) -> ConfigurationError:
        self.owns(side, port)  # a side that is neither raises its own error
        return ConfigurationError(f"shard {self.shard_id} does not own {side} port {port}")

    def _require_up(self) -> None:
        """Refuse a call while crashed (the booking verbs ask once it is)."""
        if self.crashed:
            raise BrokerUnavailable(f"shard broker {self.shard_id} is down")

    # ------------------------------------------------------------------
    # Read surface (safe from any module; GL004 only guards mutation)
    # ------------------------------------------------------------------
    def port(self, side: str, port: int) -> Port:
        """An owned access point (treat as read-only)."""
        try:
            return self._ports[side, port]
        except KeyError:
            raise self._not_owned(side, port) from None

    def timeline(self, side: str, port: int) -> CapacityProfile:
        """The usage profile of an owned port (treat as read-only)."""
        return self.port(side, port).usage

    def free_capacity(self, side: str, port: int, t0: float, t1: float) -> float:
        """Guaranteed free bandwidth on an owned port over ``[t0, t1)``."""
        return self.port(side, port).free_capacity(t0, t1)

    def max_usage(self, side: str, port: int, t0: float, t1: float) -> float:
        """Peak committed bandwidth on an owned port over ``[t0, t1)``."""
        return self.port(side, port).usage.max_usage(t0, t1)

    def max_overcommit(self) -> float:
        """Worst overshoot across the owned ports (≤ 0 ⇔ shard is valid)."""
        return max((port.max_overcommit() for port in self._ports.values()), default=-math.inf)

    def cached_peak(self, side: str, port: int) -> float:
        """All-time peak usage of an owned port (the kernel caches it)."""
        return max(0.0, self.port(side, port).usage.global_max())

    def pair_fits(self, ingress: int, egress: int, segments: tuple[Segment, ...]) -> bool:
        """Joint two-port fit when this shard owns *both* ports of a pair:
        what :meth:`book_pair` checks before it commits."""
        return self.port("ingress", ingress).fits(segments) and (
            self.port("egress", egress).fits(segments)
        )

    # ------------------------------------------------------------------
    # Mutation surface (the GL004-guarded owner of the slices)
    # ------------------------------------------------------------------
    def book_pair(
        self, ingress: int, egress: int, segments: tuple[Segment, ...], *, key: object | None = None
    ) -> None:
        """Atomically commit a shard-local pair booking (both ports owned).

        This is the one-shard fast path: no holds, no second phase —
        :meth:`pair_fits`' test, the ingress port checked and the egress
        port booked (a port's proof answers) before the ingress changes (a
        :class:`~repro.core.errors.CapacityError` leaves them untouched).
        ``key`` (the rid, when called through a channel) makes the call
        idempotent: a duplicated delivery finds the key recorded and
        books nothing twice.
        """
        if self.crashed:
            self._require_up()
        if key is not None and key in self._booked:
            return
        port_in = self.port("ingress", ingress)
        if not (port_in.fits(segments) and self.port("egress", egress).book(segments)):
            raise CapacityError(
                f"booking of {len(segments)} step(s) on pair ({ingress}, {egress}) "
                f"exceeds a port capacity"
            )
        port_in.add(segments)
        if key is not None:
            self._booked.add(key)

    def book_side(self, side: str, port: int, segments: tuple[Segment, ...]) -> bool:
        """One half of a direct cross-shard booking: :meth:`prepare`'s
        capacity check, then committed at once with no hold.  ``False``
        (slice untouched) when the port cannot carry it."""
        if self.crashed:
            self._require_up()
        return self.port(side, port).book(segments)

    def release(self, side: str, port: int, segments: tuple[Segment, ...]) -> None:
        """Return committed bandwidth on one owned port (cancel/abort path)."""
        self.port(side, port).add(segments, -1.0)

    def restore(self, side: str, port: int, segments: tuple[Segment, ...]) -> None:
        """Re-add segments to one owned port without a capacity probe.

        The malleable reshape path uses this twice: to roll a released
        tail back after shaping failed (the region may legitimately sit
        overcommitted after a degradation — that was the pre-existing
        state, not ours to reject), and to commit a shaped profile that
        fits by construction.
        """
        self.port(side, port).add(segments)

    def degrade(self, degradation: Degradation) -> None:
        """Register a capacity reduction on an owned port."""
        d = degradation
        self.port(d.side, d.port).degrade(d.t0, d.t1, d.amount)

    # ------------------------------------------------------------------
    # Two-phase protocol: prepare / commit / abort / expire
    # ------------------------------------------------------------------
    def prepare(
        self,
        side: str,
        port: int,
        segments: tuple[Segment, ...],
        *,
        rid: int,
        expires: float,
        key: object | None = None,
    ) -> Hold | None:
        """Phase one: pin ``segments`` on one owned port, or refuse.

        Raises :class:`BrokerUnavailable` when the broker is crashed;
        returns ``None`` when the port cannot carry the hold (the
        coordinator then aborts the transaction).  A granted hold is
        booked into the slice immediately, so concurrent searches see the
        pinned capacity.

        ``key`` (``(rid, side)`` when called through a channel) makes the
        call idempotent under at-least-once delivery: a replayed prepare
        returns the recorded answer — the original hold while it is live
        or committed, ``None`` once the transaction was refused or ended —
        instead of pinning the capacity twice.
        """
        self._require_up()
        if key is not None and key in self._prepared:
            prior = self._prepared[key]
            if prior is None:
                return None  # recorded refusal
            if prior.hold_id in self._holds:
                return prior  # still live: same hold, no double booking
            if self._resolution.get(prior.hold_id) == "committed":
                return prior
            return None  # aborted / expired / wiped: transaction is over
        if not self.port(side, port).book(segments):
            if key is not None:
                self._prepared[key] = None
            return None
        hold = Hold(self._next_hold, side, port, segments, rid, expires)
        self._next_hold += 1
        self._holds[hold.hold_id] = hold
        if self.due is None or expires < self.due:
            self.due = expires
        if key is not None:
            self._prepared[key] = hold
        return hold

    def commit(self, hold_id: int) -> None:
        """Phase two: the hold's capacity becomes a committed booking.

        Idempotent under replay: committing an already-committed hold is
        a no-op; committing an id this broker never granted (or whose
        transaction was aborted — a protocol bug, not a delivery fault)
        still raises :class:`~repro.core.errors.ConfigurationError`.
        """
        self._require_up()
        hold = self._holds.pop(hold_id, None)
        if hold is None:
            if self._resolution.get(hold_id) == "committed":
                return
            raise ConfigurationError(f"no hold {hold_id} on shard {self.shard_id}")
        # The capacity is already in the timeline; dropping the hold record
        # is what makes it permanent (crash no longer releases it).
        self._resolution[hold_id] = "committed"

    def _drop_hold(self, hold_id: int, resolution: str) -> bool:
        """Release one live hold and record why it ended."""
        hold = self._holds.pop(hold_id, None)
        if hold is None:
            return False
        self.port(hold.side, hold.port).add(hold.segments, -1.0)
        self._resolution[hold_id] = resolution
        return True

    def abort_hold(self, hold_id: int) -> bool:
        """Release one hold; True when it existed and its capacity returned.

        Deliberately callable on a crashed broker: aborting is how the
        coordinator *cleans up*, and a crash has already wiped the hold —
        the call then just reports ``False``.  Idempotent: a replayed
        abort finds the hold gone and reports ``False`` harmlessly.
        """
        return self._drop_hold(hold_id, "aborted")

    def expire_holds(self, now: float) -> list[Hold]:
        """Timeout-abort every hold whose ``expires`` has passed.

        The boundary is tolerance-aware (:func:`hold_expired`): a hold
        whose deadline equals ``now`` — or sits within float noise of it —
        expires on this sweep, consistently with the coordinator's sweep.
        """
        expired = [h for h in self._holds.values() if hold_expired(h.expires, now)]
        for hold in expired:
            self._drop_hold(hold.hold_id, "expired")
        self._rescan_due()
        return expired

    def _rescan_due(self) -> None:
        self.due = min((hold.expires for hold in self._holds.values()), default=None)

    def holds(self) -> list[Hold]:
        """The live (uncommitted) holds, in grant order."""
        return [self._holds[k] for k in sorted(self._holds)]

    def resolutions(self) -> dict[int, str]:
        """Terminal outcome per ended hold id (read-only copy).

        ``committed`` / ``aborted`` / ``expired`` (TTL sweep) /
        ``wiped`` (broker crash) — the record replayed deliveries are
        answered from.
        """
        return dict(self._resolution)

    def resolution_of(self, hold_id: int) -> str | None:
        """Terminal outcome of one hold (``None`` while it is live).

        This is the read the coordinator's termination protocol does when
        a commit's acknowledgements were all lost: the WAL-backed record,
        not the volatile tables, answers whether the commit landed.
        """
        return self._resolution.get(hold_id)

    def was_booked(self, key: object) -> bool:
        """Did an atomic pair booking with this idempotency key land?

        Like :meth:`resolution_of`, a durable-log read for the
        coordinator's termination protocol — it must work even while the
        broker is down, so no availability check.
        """
        return key in self._booked

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> int:
        """Kill the broker: volatile holds vanish, committed state survives.

        Returns the number of holds wiped.  Capacity pinned by the wiped
        holds returns to the slices immediately — the other half of each
        in-flight transaction is the coordinator's to abort.
        """
        wiped = list(self._holds.values())
        for hold in wiped:
            self._drop_hold(hold.hold_id, "wiped")
        self.holds_wiped += len(wiped)
        self.due = None
        # The prepare table is in-memory transaction state and dies with
        # the process; the booking-key and resolution records (WAL-backed,
        # witnessing durable bookings) survive.
        self._prepared.clear()
        self.crashed = True
        return len(wiped)

    def restart(self) -> None:
        """Bring a crashed broker back (state = committed bookings only)."""
        self.crashed = False

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def dump_state(self) -> dict[str, Any]:
        """Everything this broker holds, JSON-able: what :meth:`load_state`
        restores exactly (a gateway checkpoint's shard entry)."""
        return {
            "ports": [
                [side, port, owned.dump_state()] for (side, port), owned in self._ports.items()
            ],
            "holds": [_hold_out(hold) for hold in self._holds.values()],
            "next_hold": self._next_hold,
            "prepared": [
                [_key_out(key), None if hold is None else _hold_out(hold)]
                for key, hold in self._prepared.items()
            ],
            # Sorted: a set's iteration order depends on its history.
            "booked": [_key_out(key) for key in sorted(self._booked, key=str)],
            "resolution": [[hold_id, outcome] for hold_id, outcome in self._resolution.items()],
            "crashed": self.crashed,
            "holds_wiped": self.holds_wiped,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Replace this broker's state by a :meth:`dump_state` of a broker of
        the same shard (``ConfigurationError`` when the ports differ)."""
        ports = {(side, port): runs for side, port, runs in state["ports"]}
        if ports.keys() != self._ports.keys():
            raise ConfigurationError(
                f"checkpoint holds another port set than shard {self.shard_id}'s"
            )
        for key, runs in ports.items():
            self._ports[key].load_state(runs)
        self._holds = {row[0]: _hold_in(row) for row in state["holds"]}
        self._rescan_due()
        self._next_hold = state["next_hold"]
        self._prepared = {
            _key_in(key): None if row is None else _hold_in(row) for key, row in state["prepared"]
        }
        self._booked = {_key_in(key) for key in state["booked"]}
        self._resolution = {hold_id: outcome for hold_id, outcome in state["resolution"]}
        self.crashed = state["crashed"]
        self.holds_wiped = state["holds_wiped"]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Canonical JSON-able digest of the shard's authoritative state."""
        slices: dict[str, dict[str, list]] = {"ingress": {}, "egress": {}}
        for side, port in sorted(self._ports):
            slices[side][str(port)] = list(self._ports[side, port].usage.segments())
        return {
            "shard": self.shard_id,
            "crashed": self.crashed,
            "slices": slices,
            "holds": [hold.row() for hold in self.holds()],
            "resolved": {
                str(hold_id): outcome
                for hold_id, outcome in sorted(self._resolution.items())
            },
            "prepared": {
                str(key): (hold.hold_id if hold is not None else None)
                for key, hold in sorted(
                    self._prepared.items(), key=lambda item: str(item[0])
                )
            },
            "booked": sorted(str(key) for key in self._booked),
        }


def _hold_out(hold: Hold) -> list[Any]:
    return [
        hold.hold_id, hold.side, hold.port, [list(step) for step in hold.segments],
        hold.rid, hold.expires,
    ]  # fmt: skip


def _hold_in(row: Any) -> Hold:
    hold_id, side, port, segments, rid, expires = row
    return Hold(hold_id, side, port, tuple(tuple(step) for step in segments), rid, expires)


def _key_out(key: object) -> Any:
    """An idempotency key as JSON: a rid as is, a ``(rid, side)`` as a list."""
    return list(key) if isinstance(key, tuple) else key


def _key_in(key: Any) -> object:
    return tuple(key) if isinstance(key, list) else key
