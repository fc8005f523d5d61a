"""Allocations, schedule results, and the independent schedule verifier.

Every scheduler returns a :class:`ScheduleResult`: which requests were
accepted, and for each accepted request the granted bandwidth ``bw(r)`` and
assigned window ``[σ(r), τ(r)]``.  :func:`verify_schedule` re-checks a result
against the paper's constraints (Eq. 1) from scratch — it shares no
bookkeeping with the schedulers, so tests can use it as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from typing import Any

from ..units import seconds_eq
from .errors import ScheduleViolation
from .ledger import Degradation, PortLedger
from .platform import Platform
from .profile import RateProfile, Segment
from .request import Request, RequestSet

__all__ = ["Allocation", "ScheduleResult", "verify_schedule", "VERIFY_RTOL"]

#: Relative tolerance used by :func:`verify_schedule` for rate and capacity
#: comparisons (allocations are sums of floats).
VERIFY_RTOL: float = 1e-6


@dataclass(frozen=True, slots=True)
class Allocation:
    """Granted bandwidth and window for one accepted request.

    In the paper's constant-rate model (``profile is None``) ``tau`` is
    always ``sigma + volume / bw`` — the transfer runs at constant rate
    ``bw`` until its volume is delivered (paper §2.1).  A *malleable*
    allocation instead carries a stepwise :class:`RateProfile`; ``bw`` is
    then the profile's peak rate and ``sigma``/``tau`` its span, so every
    scalar consumer keeps a conservative view without knowing about
    profiles.
    """

    rid: int
    ingress: int
    egress: int
    bw: float
    sigma: float
    tau: float
    profile: RateProfile | None = None

    @property
    def duration(self) -> float:
        """Transfer duration ``τ - σ``."""
        return self.tau - self.sigma

    @property
    def transferred(self) -> float:
        """Volume carried in MB: ``bw × (τ - σ)``, or the profile integral."""
        if self.profile is not None:
            return self.profile.volume
        return self.bw * (self.tau - self.sigma)

    def segments(self) -> tuple[Segment, ...]:
        """The rate steps this allocation commits on both its ports.

        Constant-rate allocations report their single ``(σ, τ, bw)``
        segment: this is the only shape in which a booking reaches
        capacity state, on every plane.
        """
        if self.profile is not None:
            return self.profile.segments
        return ((self.sigma, self.tau, self.bw),)

    def carried_before(self, t: float) -> float:
        """Volume already carried strictly before ``t`` (fault-path maths)."""
        if self.profile is not None:
            return self.profile.volume_before(t)
        end = min(t, self.tau)
        return self.bw * max(0.0, end - self.sigma)

    @classmethod
    def for_request(cls, request: Request, bw: float, sigma: float | None = None) -> Allocation:
        """Allocation serving ``request`` at rate ``bw`` from ``sigma``.

        ``sigma`` defaults to the requested start ``t_s(r)`` and ``tau`` is
        derived from the volume.
        """
        start = request.t_start if sigma is None else sigma
        return cls(
            rid=request.rid,
            ingress=request.ingress,
            egress=request.egress,
            bw=bw,
            sigma=start,
            tau=start + request.volume / bw,
        )

    @classmethod
    def for_profile(cls, request: Request, profile: RateProfile) -> Allocation:
        """Malleable allocation serving ``request`` along ``profile``.

        ``bw`` is the peak rate and ``σ``/``τ`` the profile span, keeping
        the scalar fields an honest conservative summary.
        """
        return cls(
            rid=request.rid,
            ingress=request.ingress,
            egress=request.egress,
            bw=profile.peak_rate,
            sigma=profile.sigma,
            tau=profile.tau,
            profile=profile,
        )

    def with_profile(self, profile: RateProfile) -> Allocation:
        """The same request reshaped along ``profile`` (fault-path verb)."""
        return Allocation(
            rid=self.rid,
            ingress=self.ingress,
            egress=self.egress,
            bw=profile.peak_rate,
            sigma=profile.sigma,
            tau=profile.tau,
            profile=profile,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly).

        The ``profile`` key appears only for malleable allocations —
        constant-rate journals and snapshots stay byte-identical to the
        pre-profile format.
        """
        data: dict[str, Any] = {
            "rid": self.rid,
            "ingress": self.ingress,
            "egress": self.egress,
            "bw": self.bw,
            "sigma": self.sigma,
            "tau": self.tau,
        }
        if self.profile is not None:
            data["profile"] = self.profile.to_list()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Allocation:
        """Inverse of :meth:`to_dict`."""
        return cls(
            rid=int(data["rid"]),
            ingress=int(data["ingress"]),
            egress=int(data["egress"]),
            bw=float(data["bw"]),
            sigma=float(data["sigma"]),
            tau=float(data["tau"]),
            profile=RateProfile.maybe_from(data.get("profile")),
        )


@dataclass
class ScheduleResult:
    """Outcome of running a scheduler on a problem instance.

    Attributes
    ----------
    accepted:
        Mapping ``rid -> Allocation`` for every accepted request.
    rejected:
        Identifiers of rejected requests.
    scheduler:
        Human-readable name of the producing scheduler.
    meta:
        Free-form scheduler-specific details (e.g. ``t_step``, policy name).
    """

    accepted: dict[int, Allocation] = field(default_factory=dict)
    rejected: set[int] = field(default_factory=set)
    scheduler: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    #: Optional diagnostics: why each rejected request was turned away
    #: ("capacity", "deadline", ...).  Keys ⊆ ``rejected``.
    rejection_reasons: dict[int, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def accept(self, allocation: Allocation) -> None:
        """Record an accepted request."""
        if allocation.rid in self.accepted or allocation.rid in self.rejected:
            raise ScheduleViolation(f"request {allocation.rid} decided twice")
        self.accepted[allocation.rid] = allocation

    def reject(self, rid: int, reason: str | None = None) -> None:
        """Record a rejected request, optionally with a diagnostic reason."""
        if rid in self.accepted or rid in self.rejected:
            raise ScheduleViolation(f"request {rid} decided twice")
        self.rejected.add(rid)
        if reason is not None:
            self.rejection_reasons[rid] = reason

    def revoke(self, rid: int, reason: str | None = None) -> Allocation:
        """Turn a previous accept into a reject (SLOTS heuristics do this
        when a multi-interval request fails in a later interval)."""
        allocation = self.accepted.pop(rid)
        self.rejected.add(rid)
        if reason is not None:
            self.rejection_reasons[rid] = reason
        return allocation

    def rejection_breakdown(self) -> dict[str, int]:
        """Count rejections per reason ("unspecified" when untagged)."""
        counts: dict[str, int] = {}
        for rid in self.rejected:
            reason = self.rejection_reasons.get(rid, "unspecified")
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    # ------------------------------------------------------------------
    @property
    def num_accepted(self) -> int:
        """Number of accepted requests."""
        return len(self.accepted)

    @property
    def num_rejected(self) -> int:
        """Number of rejected requests."""
        return len(self.rejected)

    @property
    def num_decided(self) -> int:
        """Total number of decided requests."""
        return len(self.accepted) + len(self.rejected)

    @property
    def accept_rate(self) -> float:
        """Accepted over decided (the paper's MAX-REQUESTS metric)."""
        total = self.num_decided
        return self.num_accepted / total if total else 0.0

    def allocations(self) -> list[Allocation]:
        """Accepted allocations, ordered by assigned start time."""
        return sorted(self.accepted.values(), key=lambda a: (a.sigma, a.rid))

    def build_ledger(self, platform: Platform) -> PortLedger:
        """Replay the accepted allocations into a fresh (unchecked) ledger."""
        ledger = PortLedger(platform)
        for alloc in self.accepted.values():
            ledger.allocate_segments(alloc.ingress, alloc.egress, alloc.segments(), check=False)
        return ledger

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {
            "scheduler": self.scheduler,
            "meta": dict(self.meta),
            "accepted": [a.to_dict() for a in self.allocations()],
            "rejected": sorted(self.rejected),
            "rejection_reasons": {str(k): v for k, v in self.rejection_reasons.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ScheduleResult:
        """Inverse of :meth:`to_dict`."""
        result = cls(scheduler=str(data.get("scheduler", "")), meta=dict(data.get("meta", {})))
        reasons = {int(k): str(v) for k, v in data.get("rejection_reasons", {}).items()}
        for item in data.get("accepted", []):
            result.accept(Allocation.from_dict(item))
        for rid in data.get("rejected", []):
            result.reject(int(rid), reasons.get(int(rid)))
        return result


def verify_schedule(
    platform: Platform,
    requests: RequestSet | Iterable[Request],
    result: ScheduleResult,
    *,
    enforce_window: bool = True,
    require_all_decided: bool = True,
    rtol: float = VERIFY_RTOL,
    degradations: Iterable[Degradation] = (),
) -> None:
    """Check a schedule against the paper's constraints, or raise.

    Verifies, independently of any scheduler state:

    1. every decided ``rid`` names a known request, and (optionally) every
       request was decided exactly once;
    2. each allocation matches its request's endpoints and carries exactly
       its volume (``bw × (τ − σ) = vol``);
    3. rate bounds: ``MinRate(σ) ≤ bw ≤ MaxRate`` — where ``MinRate(σ)`` is
       the deadline-implied rate for the *assigned* start;
    4. window bounds: ``σ ≥ t_s`` and ``τ ≤ t_f`` (skipped when
       ``enforce_window=False``, for deliberately deadline-relaxed modes);
    5. capacity (Eq. 1): on every port, at every instant, committed
       bandwidth stays within capacity — the *effective* capacity when
       ``degradations`` (outages / partial failures) are supplied.

    Raises
    ------
    ScheduleViolation
        On the first violated condition, with a descriptive message.
    """
    request_set = requests if isinstance(requests, RequestSet) else RequestSet(requests)
    known = {r.rid for r in request_set}

    decided = set(result.accepted) | result.rejected
    if set(result.accepted) & result.rejected:
        raise ScheduleViolation("some requests both accepted and rejected")
    unknown = decided - known
    if unknown:
        raise ScheduleViolation(f"decisions for unknown request ids: {sorted(unknown)}")
    if require_all_decided and decided != known:
        missing = known - decided
        raise ScheduleViolation(f"undecided requests: {sorted(missing)}")

    for rid, alloc in result.accepted.items():
        request = request_set.by_rid(rid)
        if (alloc.ingress, alloc.egress) != (request.ingress, request.egress):
            raise ScheduleViolation(
                f"request {rid}: allocation endpoints ({alloc.ingress}, {alloc.egress}) "
                f"differ from request ({request.ingress}, {request.egress})"
            )
        if alloc.bw <= 0:
            raise ScheduleViolation(f"request {rid}: non-positive bandwidth {alloc.bw}")
        if alloc.tau <= alloc.sigma:
            raise ScheduleViolation(f"request {rid}: empty assigned window [{alloc.sigma}, {alloc.tau}]")
        if abs(alloc.transferred - request.volume) > rtol * request.volume:
            raise ScheduleViolation(
                f"request {rid}: carries {alloc.transferred} MB instead of {request.volume} MB"
            )
        if alloc.bw > request.max_rate * (1 + rtol):
            raise ScheduleViolation(
                f"request {rid}: bw {alloc.bw} exceeds MaxRate {request.max_rate}"
            )
        if alloc.profile is not None:
            if not alloc.profile:
                raise ScheduleViolation(f"request {rid}: empty rate profile")
            if not (
                seconds_eq(alloc.sigma, alloc.profile.sigma, rel=rtol)
                and seconds_eq(alloc.tau, alloc.profile.tau, rel=rtol)
            ):
                raise ScheduleViolation(
                    f"request {rid}: scalar window [{alloc.sigma}, {alloc.tau}] disagrees "
                    f"with profile span [{alloc.profile.sigma}, {alloc.profile.tau}]"
                )
        if enforce_window:
            if alloc.sigma < request.t_start - rtol * max(1.0, abs(request.t_start)):
                raise ScheduleViolation(
                    f"request {rid}: starts at {alloc.sigma} before window opens at {request.t_start}"
                )
            if alloc.tau > request.t_end + rtol * max(1.0, abs(request.t_end)):
                raise ScheduleViolation(
                    f"request {rid}: finishes at {alloc.tau} after deadline {request.t_end}"
                )

    ledger = result.build_ledger(platform)
    for degradation in degradations:
        ledger.degrade(degradation)
    overcommit = ledger.max_overcommit()
    max_cap = max(
        float(platform.ingress_capacity.max()), float(platform.egress_capacity.max())
    )
    if overcommit > rtol * max_cap:
        raise ScheduleViolation(
            f"capacity violated: worst overshoot {overcommit} MB/s across ports"
        )
