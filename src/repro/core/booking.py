"""Shared earliest-fit book-ahead search.

Several layers run the same search: "find the earliest start within the
request's window at which a rate assignment fits the ledger" — the
service and the gateway's coordinator on every admission (through the
:func:`admission_search` cascade), the offline salvage pass of
:mod:`repro.grid.failures`, and the re-admission / rebooking paths of the
fault-tolerant control plane.  This module is the single implementation
they all delegate to.

Candidate starts are the request's window opening plus every instant where
the pair's available capacity can change: usage breakpoints of both port
timelines and, on degraded ledgers, the capacity-change instants.  Between
two consecutive candidates the available capacity is constant, so checking
only candidates is exhaustive.

Few candidates are put to the ledger: a failed probe names the usage
segment that blocked it, and later candidates that still overlap that
segment at no lower a rate are failed from memory — all at once, without
being visited, when the rate rule is ``monotone`` (:func:`_first_fit`;
``docs/CAPACITY.md``, "How the search skips").
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Callable
from typing import Protocol, runtime_checkable

from ..obs.telemetry import get_telemetry
from .allocation import Allocation
from .ledger import Port, PortLedger
from .profile import RateProfile
from .request import Request

__all__ = [
    "BoundRule",
    "FitProbe",
    "LedgerView",
    "RateRule",
    "RejectReason",
    "admission_search",
    "earliest_fit",
    "earliest_fit_profile",
    "shape_profile",
    "book_earliest",
    "deadline_tolerance",
]


@runtime_checkable
class LedgerView(Protocol):
    """What a book-ahead search needs from a capacity store: the pair's two
    :class:`~repro.core.ledger.Port`\\ s, which it then asks directly.

    :class:`~repro.core.ledger.PortLedger` answers from its own lists, the
    gateway's :class:`~repro.gateway.twophase.TwoPhaseCoordinator` with the
    ports of the two owning shard brokers.  The search only reads them;
    committing is :func:`book_earliest`'s (or a broker's) job.
    """

    def ports(self, ingress: int, egress: int) -> tuple[Port, Port]: ...


class RejectReason(enum.Enum):
    """Machine-readable cause of a booking rejection.

    The earliest-fit search classifies every failed admission:

    - ``INGRESS_FULL`` / ``EGRESS_FULL`` — some rate meeting the deadline
      exists, but the named port side cannot carry it anywhere in the
      window (the side with less headroom at the first capacity-failing
      candidate start is blamed);
    - ``WINDOW_INFEASIBLE`` — the window cannot carry the volume even at
      ``MaxRate`` (``t_end − t_start < vol / MaxRate``), e.g. after a
      re-admission clipped the window;
    - ``MINRATE_EXCEEDS_MAXRATE`` — at every candidate start the
      deadline-implied rate exceeds what the policy/MaxRate can grant;
    - ``BROKER_UNAVAILABLE`` — a gateway-only outcome: a shard broker
      owning one of the request's ports stayed down through the two-phase
      retry budget (the monolithic service never emits it);
    - ``SHARD_UNREACHABLE`` — gateway-only: message-level faults (lost
      deliveries, a network partition) exhausted the coordinator's retry
      or RPC-deadline budget for a shard (see :mod:`repro.gateway.rpc`);
      unlike a plain reject the gateway backlog may re-admit the request
      once the shard answers again;
    - ``PROFILE_INFEASIBLE`` — a stepwise rate profile could not be
      granted: an explicit profile does not fit its window anywhere, or
      the shaping search could not carve the volume out of the residual
      capacity valleys.  Deliberately distinct from
      ``WINDOW_INFEASIBLE`` (which stays the *constant-rate* window
      verdict) so reject tallies separate the two admission models.
    """

    INGRESS_FULL = "ingress-full"
    EGRESS_FULL = "egress-full"
    WINDOW_INFEASIBLE = "window-infeasible"
    MINRATE_EXCEEDS_MAXRATE = "minrate-exceeds-maxrate"
    BROKER_UNAVAILABLE = "broker-unavailable"
    SHARD_UNREACHABLE = "shard-unreachable"
    PROFILE_INFEASIBLE = "profile-infeasible"


@dataclass
class FitProbe:
    """Diagnostics of one earliest-fit search (filled in by the search).

    Attributes
    ----------
    candidates:
        Candidate start times in the start range up to and including the
        chosen one (all of them on failure): "how far did the search have
        to look".  A ``monotone`` rule passes over most of them unvisited.
    reason:
        Why the request could not be booked (``None`` on success).
    ingress_headroom / egress_headroom:
        Free bandwidth on each side at the first capacity-failing
        candidate, i.e. the headroom the request bounced off; ``None``
        when the search never reached a capacity check.
    """

    candidates: int = 0
    reason: RejectReason | None = None
    ingress_headroom: float | None = None
    egress_headroom: float | None = None


def deadline_tolerance(t_end: float) -> float:
    """Absolute-plus-relative slack for deadline comparisons.

    Matches the window checks of :func:`~repro.core.allocation.verify_schedule`:
    an absolute floor keeps the tolerance meaningful for deadlines at or
    near ``t = 0``, where a purely relative one collapses to nothing.
    """
    return 1e-9 * max(1.0, abs(t_end))


class RateRule(Protocol):
    """A bandwidth rule bound to one request: the rate to try from start
    ``sigma``, ``None`` when no admissible rate exists from there.

    ``monotone`` is the promise spelled out on
    :class:`repro.schedulers.policies.BandwidthPolicy`: for ``s <= s'`` the
    rate never decreases (``None`` stays ``None``) and the finish
    ``s + vol / rate`` never decreases by more than
    :func:`deadline_tolerance`.  A plain callable has no such attribute and
    is searched as ``monotone = False``, which is always exact.
    """

    monotone: bool

    def __call__(self, sigma: float) -> float | None: ...


class BoundRule:
    """``assign(request, ·)`` as a :class:`RateRule` (``policy.bind(request)``)."""

    __slots__ = ("assign", "request", "monotone")

    def __init__(
        self, assign: Callable[[Request, float], float | None], request: Request, monotone: bool
    ) -> None:
        self.assign = assign
        self.request = request
        self.monotone = monotone

    def __call__(self, sigma: float) -> float | None:
        return self.assign(self.request, sigma)


def _first_fit(
    ledger: LedgerView,
    request: Request,
    rate_for: Callable[[float], float | None],
    earliest: float,
    limit: float,
) -> tuple[Allocation | None, int, tuple[float, float] | None]:
    """The one candidate walk behind every constant-rate book-ahead search.

    Candidates are ``earliest`` plus every instant in ``(earliest,
    t_end − vol/MaxRate]`` where the pair's free capacity can change, in
    ascending order.  Each one gets ``rate_for(sigma)`` and its finish time
    ``tau``; a candidate finishing after ``limit`` is skipped, the first
    whose rate fits is returned.

    What keeps a long walk cheap is the blocker memo: a failed probe
    (:meth:`Port.blocker <repro.core.ledger.Port.blocker>`, the ingress
    port's or else the egress port's) names an interval ``[a, b)`` on which
    the usage alone already rules out the tried rate, and a later candidate
    with ``bw >= blocked rate``, ``sigma < b`` and ``tau > a`` is failed
    without asking the ledger again.  The test is made per candidate on
    that candidate's own rate and interval, so it is exact for *any*
    ``rate_for`` — ``fits_under`` is monotone in usage and in rate — and
    the result is the one the probe-every-candidate walk returns.

    Under a ``monotone`` rule (:class:`RateRule`) the candidates before
    ``b`` need not even be visited: each has ``bw' >= bw`` and ``sigma' <
    b`` and, finishing no earlier than the probe did, ``tau' > a`` — it
    fails that very test, or has no rate or misses ``limit``, which is as
    inert — so the walk jumps to the first start ``>= b``.  Finish times
    are monotone only to within a few ulps, hence the jump is taken only
    when the blocker starts :func:`deadline_tolerance` or more before the
    probe's ``tau``; closer than that, the candidates under this blocker
    are tested one by one as for any other rule.  A degraded port's empty
    blocker ``(t0, t0)`` matches no later start and skips nothing: while it
    is what blocks, every candidate is visited and probed.

    ``limit`` is the caller's deadline bound, kept per caller on purpose:
    :func:`earliest_fit` allows :func:`deadline_tolerance` (``1e-9``
    relative with an absolute floor), the offline schedulers
    ``t_end * (1 + 1e-12)``.  Under ``f × MaxRate`` a finish time can land
    between the two, so one shared bound would flip decisions the golden
    traces do not happen to cover.

    Returns ``(allocation, candidates, bounced)``: the uncommitted
    allocation or ``None``; the number of candidates up to and including
    the chosen one, all of them on failure (0 only when the start range is
    empty); and ``(sigma, tau)`` of the first candidate that failed on
    capacity (``None`` when none got that far).
    """
    latest = request.t_end - request.min_duration
    if latest < earliest:
        return None, 0, None
    volume = request.volume
    port_in, port_out = ledger.ports(request.ingress, request.egress)
    # The later starts are never listed: each port's breakpoints and edges
    # in (earliest, latest] stay the ascending runs they are, one cursor
    # each, and the next start is the least head past sigma.
    runs = [
        run
        for run in (
            port_in.usage.breakpoints_between(earliest, latest),
            port_out.usage.breakpoints_between(earliest, latest),
            port_in.edges(earliest, latest),
            port_out.edges(earliest, latest),
        )
        if run
    ]
    heads = [0] * len(runs)
    # A plain callable promises nothing: every candidate is visited.
    monotone = getattr(rate_for, "monotone", False)
    tolerance = deadline_tolerance(request.t_end)
    bounced: tuple[float, float] | None = None
    blocked_bw, blocked_from, blocked_until = math.inf, 0.0, 0.0
    sigma = earliest
    while True:
        bw = rate_for(sigma)
        if bw is not None and bw > 0:
            tau = sigma + volume / bw
            if tau <= limit and not (
                bw >= blocked_bw and sigma < blocked_until and tau > blocked_from
            ):
                blocked = port_in.blocker(sigma, tau, bw) or port_out.blocker(sigma, tau, bw)
                if blocked is None:
                    allocation = Allocation.for_request(request, bw, sigma=sigma)
                    return allocation, _rank(runs, heads), bounced
                blocked_bw = bw
                blocked_from, blocked_until = blocked
                if bounced is None:
                    bounced = (sigma, tau)
                if monotone and blocked_from + tolerance <= tau:
                    heads = [bisect_left(run, blocked_until, k) for run, k in zip(runs, heads)]
        live = [run[k] for run, k in zip(runs, heads) if k < len(run)]
        if not live:
            return None, _rank(runs, heads), bounced
        sigma = min(live)
        heads = [k + (k < len(run) and run[k] == sigma) for run, k in zip(runs, heads)]


def _rank(runs: list[list[float]], heads: list[int]) -> int:
    """Distinct starts up to the walk's stop: ``earliest`` (in no run) and
    every run entry before its cursor, each run's shares counted once."""
    if len(runs) == 1:
        return 1 + heads[0]
    return 1 + len(set().union(*(run[:k] for run, k in zip(runs, heads))))


def earliest_fit(
    ledger: LedgerView,
    request: Request,
    rate_for: Callable[[float], float | None] | None = None,
    *,
    not_before: float | None = None,
    probe: FitProbe | None = None,
) -> Allocation | None:
    """Earliest feasible allocation for ``request`` against ``ledger``.

    ``rate_for(sigma)`` maps a candidate start to the rate to try there
    (``policy.bind(request)``, a :class:`RateRule`; any callable will do),
    returning ``None`` when no admissible rate exists from that start.  The
    default is the MinRate rule, :meth:`Request.deadline_rate`.
    ``not_before`` further constrains the search (e.g. "no earlier than the
    service clock").  The ledger is not modified; use :func:`book_earliest`
    to also commit the result.

    When a :class:`FitProbe` is supplied the search fills it with decision
    diagnostics: candidate count, a :class:`RejectReason` on failure, and
    the per-side headroom the request bounced off.
    """
    if rate_for is None:
        rate_for = BoundRule(Request.deadline_rate, request, monotone=True)
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    allocation, examined, bounced = _first_fit(
        ledger, request, rate_for, earliest, request.t_end + deadline_tolerance(request.t_end)
    )
    if probe is not None:
        probe.candidates = examined
        if allocation is None:
            _blame(ledger, request, probe, bounced)
    _count_fit(request, candidates=examined, accepted=allocation is not None)
    return allocation


def _blame(
    ledger: LedgerView, request: Request, probe: FitProbe, bounced: tuple[float, float] | None
) -> None:
    """Fill ``probe`` for a failed constant-rate search (see :class:`RejectReason`).

    ``bounced`` is the first capacity-failing ``(sigma, tau)``: the
    headrooms there are recorded and the side that had less is blamed.
    """
    if probe.candidates == 0:
        probe.reason = RejectReason.WINDOW_INFEASIBLE
    elif bounced is None:
        probe.reason = RejectReason.MINRATE_EXCEEDS_MAXRATE
    else:
        port_in, port_out = ledger.ports(request.ingress, request.egress)
        ing_free = port_in.free_capacity(*bounced)
        egr_free = port_out.free_capacity(*bounced)
        probe.ingress_headroom, probe.egress_headroom = ing_free, egr_free
        probe.reason = (
            RejectReason.INGRESS_FULL if ing_free <= egr_free else RejectReason.EGRESS_FULL
        )


def _count_fit(request: Request, *, candidates: int, accepted: bool) -> None:
    """Maintain the booking-layer counters on the active telemetry handle."""
    tel = get_telemetry()
    if not tel.enabled:
        return
    outcome = "accepted" if accepted else "rejected"
    tel.metrics.counter(
        "booking_earliest_fit_total",
        "Earliest-fit searches by outcome.",
    ).inc(outcome=outcome)
    tel.metrics.counter(
        "booking_candidates_examined_total",
        "Candidate start times examined by the earliest-fit search.",
    ).inc(float(candidates))


def _pair_points(port_in: Port, port_out: Port, lo: float, hi: float) -> list[float]:
    """Instants in ``(lo, hi]`` where the pair's free capacity can change:
    each port's breakpoints, ascending, then the degradation edges; an
    instant both ports share is listed twice."""
    return [
        *port_in.usage.breakpoints_between(lo, hi),
        *port_out.usage.breakpoints_between(lo, hi),
        *port_in.edges(lo, hi),
        *port_out.edges(lo, hi),
    ]


def _pair_edges(port_in: Port, port_out: Port, lo: float, hi: float) -> list[float]:
    """Instants in ``(lo, hi)`` where the pair's residual capacity can change."""
    edges = set(_pair_points(port_in, port_out, lo, hi))
    edges.discard(hi)
    return sorted(edges)


def earliest_fit_profile(
    ledger: LedgerView,
    request: Request,
    profile: RateProfile,
    *,
    not_before: float | None = None,
    probe: FitProbe | None = None,
) -> Allocation | None:
    """Earliest placement of an *explicit* stepwise profile.

    The caller fixed the profile's shape; the search may only slide it
    later in time (never earlier than its own start or ``not_before``),
    trying the as-given position first and then every shift that aligns
    the profile start with a residual-capacity edge.  Between two
    consecutive edges the residual capacities are constant, so checking
    only edge-aligned shifts is exhaustive for the same reason the
    constant-rate search's candidate set is.

    Rejections classify as :attr:`RejectReason.PROFILE_INFEASIBLE` when
    the shape cannot meet the window at all, and as port-blame
    (``INGRESS_FULL`` / ``EGRESS_FULL``) when it fits the window but
    bounced off capacity everywhere.
    """
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    tol = deadline_tolerance(request.t_end)
    if not profile or not profile.conserves(request.volume):
        if probe is not None:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
        _count_shape(request, accepted=False)
        return None
    if profile.peak_rate > request.max_rate * (1 + 1e-9):
        if probe is not None:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
        _count_shape(request, accepted=False)
        return None
    shift_min = max(0.0, earliest - profile.sigma)
    shift_max = request.t_end + tol - profile.tau
    if shift_max < shift_min:
        if probe is not None:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
        _count_shape(request, accepted=False)
        return None
    port_in, port_out = ledger.ports(request.ingress, request.egress)
    base = profile.sigma + shift_min
    shifts = {shift_min}
    for t in _pair_edges(port_in, port_out, base, base + (shift_max - shift_min)):
        shifts.add(shift_min + (t - base))
    examined = 0
    first_headroom: tuple[float, float] | None = None
    for shift in sorted(shifts):
        examined += 1
        candidate = profile.shift(shift) if shift > 0.0 else profile
        if all(
            port_in.blocker(t0, t1, rate) is None and port_out.blocker(t0, t1, rate) is None
            for t0, t1, rate in candidate.segments
        ):
            if probe is not None:
                probe.candidates = examined
            _count_shape(request, accepted=True)
            return Allocation.for_profile(request, candidate)
        if first_headroom is None:
            first_headroom = (
                port_in.free_capacity(candidate.sigma, candidate.tau),
                port_out.free_capacity(candidate.sigma, candidate.tau),
            )
    if probe is not None:
        probe.candidates = examined
        if first_headroom is not None:
            probe.ingress_headroom, probe.egress_headroom = first_headroom
            ing_free, egr_free = first_headroom
            probe.reason = (
                RejectReason.INGRESS_FULL
                if ing_free <= egr_free
                else RejectReason.EGRESS_FULL
            )
        else:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
    _count_shape(request, accepted=False)
    return None


def shape_profile(
    ledger: LedgerView,
    request: Request,
    *,
    not_before: float | None = None,
    max_rate: float | None = None,
    probe: FitProbe | None = None,
) -> RateProfile | None:
    """Carve a volume-conserving stepwise profile out of residual capacity.

    A greedy left-to-right water-fill: the request's window is cut into
    elementary intervals at every instant the pair's residual capacity can
    change; each interval contributes ``min(MaxRate, pair headroom)`` until
    the volume is delivered (the final step is truncated to conserve volume
    exactly).  Intervals with no headroom become gaps.  Returns ``None`` —
    classifying the refusal as :attr:`RejectReason.PROFILE_INFEASIBLE` —
    when the whole window cannot carry the volume even stepwise.

    This is the shaping half of the malleable admission path; the sliding
    half for caller-fixed shapes is :func:`earliest_fit_profile`.
    """
    earliest = request.t_start if not_before is None else max(request.t_start, not_before)
    cap = request.max_rate if max_rate is None else min(max_rate, request.max_rate)
    if earliest >= request.t_end or cap <= 0:
        if probe is not None:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
        _count_shape(request, accepted=False)
        return None
    port_in, port_out = ledger.ports(request.ingress, request.egress)
    bounds = [earliest, *_pair_edges(port_in, port_out, earliest, request.t_end), request.t_end]
    segments: list[tuple[float, float, float]] = []
    remaining = request.volume
    examined = 0
    for a, b in zip(bounds, bounds[1:]):
        examined += 1
        rate = min(cap, port_in.free_capacity(a, b), port_out.free_capacity(a, b))
        if rate <= 0.0:
            continue
        step = rate * (b - a)
        if step >= remaining:
            segments.append((a, a + remaining / rate, rate))
            remaining = 0.0
            break
        segments.append((a, b, rate))
        remaining -= step
    if probe is not None:
        probe.candidates = examined
    if remaining > 0.0 or not segments:
        if probe is not None:
            probe.reason = RejectReason.PROFILE_INFEASIBLE
        _count_shape(request, accepted=False)
        return None
    shaped = RateProfile(segments)
    _count_shape(request, accepted=True)
    return shaped


def admission_search(
    ledger: LedgerView,
    request: Request,
    rate_for: Callable[[float], float | None] | None,
    *,
    profile: RateProfile | None = None,
    malleable: bool = False,
) -> tuple[Allocation | None, FitProbe]:
    """The admission cascade of every serving plane.

    An explicit ``profile`` is placed as-given or slid later, never before
    the window opens (:func:`earliest_fit_profile`).  Otherwise the
    constant-rate :func:`earliest_fit` runs and, when it fails and
    ``malleable`` is set, :func:`shape_profile` carves one out of the
    pair's residual valleys.  Returns the uncommitted allocation and the
    probe of the search that settled it: a failed shaping keeps the
    constant search's, which names the fuller port and both headrooms.
    """
    probe = FitProbe()
    if profile is not None:
        allocation = earliest_fit_profile(
            ledger, request, profile, not_before=request.t_start, probe=probe
        )
        return allocation, probe
    allocation = earliest_fit(ledger, request, rate_for, probe=probe)
    if allocation is None and malleable:
        shaped_probe = FitProbe()
        shaped = shape_profile(ledger, request, probe=shaped_probe)
        if shaped is not None:
            return Allocation.for_profile(request, shaped), shaped_probe
    return allocation, probe


def _count_shape(request: Request, *, accepted: bool) -> None:
    """Maintain the profile-booking counters on the active telemetry handle."""
    tel = get_telemetry()
    if not tel.enabled:
        return
    outcome = "accepted" if accepted else "rejected"
    tel.metrics.counter(
        "booking_profile_total",
        "Profile shaping/placement searches by outcome.",
    ).inc(outcome=outcome)


def book_earliest(
    ledger: PortLedger,
    request: Request,
    rate_for: Callable[[float], float | None] | None = None,
    *,
    not_before: float | None = None,
    probe: FitProbe | None = None,
) -> Allocation | None:
    """:func:`earliest_fit`, committing the allocation when one is found."""
    allocation = earliest_fit(ledger, request, rate_for, not_before=not_before, probe=probe)
    if allocation is not None:
        ledger.allocate(
            allocation.ingress,
            allocation.egress,
            allocation.sigma,
            allocation.tau,
            allocation.bw,
        )
    return allocation
