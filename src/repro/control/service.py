"""A stateful reservation service — the client-facing API (§5.4).

The paper's deployment returns "a scheduled time window and allocated
rate" directly to the client.  :class:`ReservationService` packages the
book-ahead admission logic behind exactly that interface, usable as a
long-running service object:

>>> service = ReservationService(Platform.paper_platform())
>>> r = service.submit(ingress=0, egress=3, volume=200_000, deadline=7200, now=0.0)
>>> r.confirmed, r.allocation.bw     # doctest: +SKIP
(True, 333.3)

Reservations can later be **cancelled**; bandwidth not yet consumed is
returned to the ledger and benefits subsequent submissions (the tests
assert this capacity reuse).  The service clock only moves forward.

Beyond the happy path, the service is the recovery point of the
fault-tolerant control plane (see :mod:`repro.control.faults`):

- :meth:`abort` handles a mid-flight transfer failure — the reservation
  tail returns to the ledger and, when a re-admission backlog is enabled,
  previously rejected requests immediately compete for the freed capacity;
- :meth:`degrade` applies a port capacity reduction or outage, finds the
  reservations the remaining capacity can no longer carry, and cancels
  them with a checkpoint of the volume already carried so their residual
  can be rebooked (``volume − carried``);
- every state-changing operation can be journaled
  (:class:`~repro.control.journal.Journal`) and a crashed service rebuilt
  deterministically via :meth:`replay` — :meth:`snapshot` equality is the
  test oracle.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from ..core.allocation import Allocation, ScheduleResult
from ..core.booking import FitProbe, RejectReason, admission_search
# Unused: the frozen benchmarks/stack/tracer.py (CORE_TARGETS) resolves this
# name on this module until ROADMAP 1(b) re-baselines.
from ..core.booking import earliest_fit  # noqa: F401
from ..core.errors import ConfigurationError, InternalInvariantError
from ..core.ledger import Degradation, PortLedger
from ..core.platform import Platform
from ..core.profile import RateProfile
from ..core.request import Request, RequestSet
from ..metrics.faults import FaultStats
from ..obs.telemetry import Telemetry, get_telemetry
from ..schedulers.policies import BandwidthPolicy, MinRatePolicy, policy_from_name
from .journal import Journal
from . import lifecycle
from .lifecycle import Reservation, ReservationState
from .striped import StripedBooking, plan_striped

__all__ = ["ReservationService", "Reservation", "ReservationState", "RejectReason"]


class ReservationService:
    """Online book-ahead admission with submit / cancel / inspect calls.

    Parameters
    ----------
    platform:
        Port capacities.
    policy:
        Bandwidth assignment policy for admitted transfers.
    backlog_limit:
        Keep up to this many rejected requests; whenever capacity frees up
        (cancel / abort / degrade) they are re-offered to the ledger in
        FIFO order.  ``0`` (default) disables re-admission.
    journal:
        Optional operation journal; every state-changing call is appended
        so :meth:`replay` can rebuild the service after a crash.
    telemetry:
        Explicit telemetry handle for this service instance; when omitted,
        every decision is reported through the process-wide handle
        (:func:`~repro.obs.telemetry.get_telemetry`), which defaults to a
        no-op :class:`~repro.obs.telemetry.NullTelemetry`.
    """

    def __init__(
        self,
        platform: Platform,
        policy: BandwidthPolicy | None = None,
        *,
        backlog_limit: int = 0,
        malleable: bool = False,
        journal: Journal | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if backlog_limit < 0:
            raise ConfigurationError(f"backlog_limit must be >= 0, got {backlog_limit}")
        self.platform = platform
        self.policy = policy or MinRatePolicy()
        self.backlog_limit = backlog_limit
        #: Malleable-transfer mode: shape stepwise profiles into residual
        #: capacity when the constant-rate search fails, and reshape live
        #: reservations before displacing them on degradations.  Off by
        #: default — the constant-rate decision trace stays byte-identical.
        self.malleable = malleable
        self._telemetry = telemetry
        self._ledger = ledger = PortLedger(platform)
        #: How the shared lifecycle rules reach this plane's one ledger.
        self._capacity = lifecycle.CapacityOps(
            release=ledger.release_segments,
            restore=partial(ledger.allocate_segments, check=False),
            overcommit_on=ledger.overcommit_on,
            view=ledger,
        )
        self._clock = float("-inf")
        self._next_rid = 0
        self._reservations: dict[int, Reservation] = {}
        self._striped: dict[int, StripedBooking | None] = {}
        self._striped_cancelled: dict[int, float] = {}
        self._backlog: list[int] = []
        self._degradations: list[Degradation] = []
        self.stats = FaultStats()
        self.journal = journal
        if journal is not None:
            header: dict[str, Any] = {
                "platform": platform.to_dict(),
                "policy": self.policy.name,
                "backlog_limit": backlog_limit,
            }
            if malleable:
                # Only written when on, so constant-rate journals stay
                # byte-identical to the pre-profile format.
                header["malleable"] = True
            journal.set_header(header)

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> float:
        if now < self._clock:
            raise ConfigurationError(f"time went backwards: {now} < {self._clock}")
        self._clock = now
        return now

    def _take_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def _record(self, op: str, now: float, **args: Any) -> None:
        if self.journal is not None:
            self.journal.append(op, now, **args)

    @property
    def now(self) -> float:
        """Last observed service time."""
        return self._clock

    @property
    def telemetry(self) -> Telemetry:
        """The handle decisions are reported through (instance or process-wide)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        ingress: int,
        egress: int,
        volume: float,
        deadline: float,
        now: float,
        max_rate: float | None = None,
        origin: int | None = None,
        profile: RateProfile | list[Any] | None = None,
    ) -> Reservation:
        """Submit a transfer; returns a confirmed or rejected reservation.

        ``deadline`` is absolute; the window opens at ``now``.  The service
        books the earliest feasible start within the window at the policy's
        rate, exactly like :class:`~repro.schedulers.advance.EarliestStartFlexible`.

        ``origin`` marks this submission as the rebooking of an earlier
        reservation's residual volume (after an abort or displacement); it
        links the new reservation to the old one for accounting and lets
        :meth:`accept_rate` treat the pair as one client request.

        ``profile`` requests a stepwise (malleable) rate shape instead of
        the paper's constant rate: absolute-time ``(t0, t1, rate)``
        segments that must deliver exactly ``volume`` MB.  The shape is
        granted as-given or slid later within the window
        (:func:`~repro.core.booking.earliest_fit_profile`); a shape that
        fits nowhere rejects with
        :attr:`~repro.core.booking.RejectReason.PROFILE_INFEASIBLE`.
        """
        # A malformed submission (InvalidRequestError, KeyError) is not a
        # rejection: it raises here, before the clock moves or a rid is taken.
        request, wanted, entry = lifecycle.new_request(
            self.platform,
            self._next_rid,
            self.get,
            ingress=ingress,
            egress=egress,
            volume=volume,
            deadline=deadline,
            now=now,
            max_rate=max_rate,
            origin=origin,
            profile=profile,
        )
        self._advance(now)
        rid = self._take_rid()
        self._record("submit", now, **entry)
        allocation, probe = self._book(request, wanted)
        reservation = Reservation(
            rid=rid,
            request=request,
            allocation=allocation,
            origin=origin,
            reject_reason=probe.reason,
        )
        self._reservations[rid] = reservation
        self._observe_submit(reservation, probe, now)
        if origin is not None:
            parent = self._reservations[origin]
            if parent.displaced_at is not None or parent.aborted_at is not None:
                self.stats.rebook_attempts += 1
                if allocation is not None:
                    self.stats.rebooked += 1
                    self.stats.recovered_volume += volume
                    self.stats.rebook_wait_total += now - parent.terminated_at
        elif allocation is None and self.backlog_limit > 0:
            self._backlog.append(rid)
            self.stats.backlogged += 1
            if len(self._backlog) > self.backlog_limit:
                self._backlog.pop(0)
        return reservation

    def _book(
        self, request: Request, profile: RateProfile | None = None
    ) -> tuple[Allocation | None, FitProbe]:
        """Search (:func:`~repro.core.booking.admission_search`), then commit."""
        allocation, probe = admission_search(
            self._ledger,
            request,
            self.policy.bind(request),
            profile=profile,
            malleable=self.malleable,
        )
        if allocation is None:
            return None, probe
        a = allocation
        # A client's shape is probed again; a shaped one fits by construction.
        self._ledger.allocate_segments(
            a.ingress, a.egress, a.segments(), check=a.profile is None or profile is not None
        )
        self._note_port_peaks(a)
        return a, probe

    def _note_port_peaks(self, alloc: Allocation) -> None:
        """Track peak committed utilisation of the two ports just booked on."""
        tel = self.telemetry
        if not tel.enabled:
            return
        gauge = tel.metrics.gauge(
            "service_port_peak_utilization",
            "Peak committed bandwidth over port capacity, per port.",
        )
        in_cap = self.platform.bin(alloc.ingress)
        out_cap = self.platform.bout(alloc.egress)
        if in_cap > 0:
            in_peak = self._ledger.ingress_timeline(alloc.ingress).max_usage(alloc.sigma, alloc.tau)
            gauge.set_max(in_peak / in_cap, side="ingress", port=alloc.ingress)
        if out_cap > 0:
            out_peak = self._ledger.egress_timeline(alloc.egress).max_usage(alloc.sigma, alloc.tau)
            gauge.set_max(out_peak / out_cap, side="egress", port=alloc.egress)

    def _observe_submit(self, reservation: Reservation, probe: FitProbe, now: float) -> None:
        """Report one admission decision: counters, decision event, span."""
        tel = self.telemetry
        if not tel.enabled:
            return
        alloc = reservation.allocation
        outcome = "accepted" if alloc is not None else "rejected"
        tel.metrics.counter(
            "service_submits_total", "Reservation submissions by admission outcome."
        ).inc(outcome=outcome)
        fields: dict[str, Any] = {
            "rid": reservation.rid,
            "ingress": reservation.request.ingress,
            "egress": reservation.request.egress,
            "volume": reservation.request.volume,
            "deadline": reservation.request.t_end,
            "outcome": outcome,
            "candidates": probe.candidates,
        }
        if alloc is not None:
            fields.update(sigma=alloc.sigma, tau=alloc.tau, bw=alloc.bw)
            tel.tracer.complete(
                "reservation",
                alloc.sigma,
                alloc.tau,
                cat="service",
                tid=alloc.ingress,
                rid=reservation.rid,
                bw=alloc.bw,
            )
        else:
            reason = probe.reason.value if probe.reason is not None else "unspecified"
            fields["reason"] = reason
            if probe.ingress_headroom is not None:
                fields["ingress_headroom"] = probe.ingress_headroom
                fields["egress_headroom"] = probe.egress_headroom
            tel.metrics.counter(
                "service_rejects_total", "Reservation rejections by reason."
            ).inc(reason=reason)
        tel.emit("service.submit", now, **fields)

    def submit_striped(
        self,
        *,
        sources: list[int],
        egress: int,
        volume: float,
        deadline: float,
        now: float,
        max_stream_rate: float | None = None,
    ) -> StripedBooking | None:
        """Book a multi-source (striped) staging transfer.

        All stripes start now and finish together as early as the ledger
        allows (see :mod:`repro.control.striped`).  Returns the committed
        booking, or ``None`` (nothing booked) when the deadline cannot be
        met.  The booking is tracked under its base rid (the first stripe's
        rid): it counts in :meth:`accept_rate` and can be cancelled as a
        whole through :meth:`cancel` — stripes model one logical dataset
        staging and are never cancelled individually.
        """
        # Planning only reads the ledger and raises on a malformed call,
        # so it runs before the clock moves or a rid is taken.
        booking = plan_striped(
            self._ledger,
            self.platform,
            sources=sources,
            egress=egress,
            volume=volume,
            t_start=now,
            t_end=deadline,
            max_stream_rate=max_stream_rate,
            base_rid=self._next_rid,
        )
        self._advance(now)
        self._record(
            "submit_striped",
            now,
            sources=list(sources),
            egress=egress,
            volume=volume,
            deadline=deadline,
            max_stream_rate=max_stream_rate,
        )
        # Reserve one id per potential stripe so rids stay unique.
        base = self._next_rid
        self._next_rid += len(sources)
        if booking is not None:
            for alloc in booking.allocations:
                self._ledger.allocate(
                    alloc.ingress, alloc.egress, alloc.sigma, alloc.tau, alloc.bw
                )
        self._striped[base] = booking
        tel = self.telemetry
        if tel.enabled:
            outcome = "accepted" if booking is not None else "rejected"
            tel.metrics.counter(
                "service_striped_total", "Striped submissions by outcome."
            ).inc(outcome=outcome)
            tel.emit(
                "service.submit_striped",
                now,
                base=base,
                outcome=outcome,
                stripes=len(booking.allocations) if booking is not None else 0,
            )
        return booking

    # ------------------------------------------------------------------
    def cancel(self, rid: int, *, now: float) -> bool:
        """Cancel a reservation; unconsumed bandwidth returns to the pool.

        Returns True when anything was released (a confirmed or active
        reservation, or a live striped booking addressed by its base rid);
        False for rejected/completed/already-terminated ones.
        """
        reservation = None if rid in self._striped else self.get(rid)
        self._advance(now)
        self._record("cancel", now, rid=rid)
        if reservation is None:
            released = self._cancel_striped(rid, now)
        else:
            freed = lifecycle.terminate(
                reservation, now, ReservationState.CANCELLED, self._capacity.release
            )
            released = freed is not None
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("service_cancels_total", "Cancellations by effect.").inc(
                released=str(released).lower()
            )
            tel.emit("service.cancel", now, rid=rid, released=released)
        if released:
            self._readmit(now)
        return released

    def _cancel_striped(self, base: int, now: float) -> bool:
        booking = self._striped[base]
        if booking is None or base in self._striped_cancelled:
            return False
        if now >= booking.finish:
            return False  # already completed
        for alloc in booking.allocations:
            lifecycle.release_tail(alloc, now, self._capacity.release)
        self._striped_cancelled[base] = now
        return True

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def abort(self, rid: int, *, now: float) -> bool:
        """A transfer failed mid-flight; free its tail and try re-admission.

        The volume carried so far is wasted (the paper's §6 motivation);
        the reservation tail returns to the ledger and the re-admission
        backlog immediately competes for it.  Returns False when the
        reservation is not live (already completed/terminated/rejected).
        """
        reservation = self.get(rid)
        self._advance(now)
        self._record("abort", now, rid=rid)
        freed = lifecycle.terminate(
            reservation, now, ReservationState.ABORTED, self._capacity.release
        )
        if freed is None:
            return False
        self.stats.aborted += 1
        self.stats.wasted_volume += reservation.carried
        self.stats.freed_volume += freed
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter("service_aborts_total", "Mid-flight transfer aborts.").inc()
            tel.emit(
                "service.abort",
                now,
                rid=rid,
                freed=freed,
                wasted=reservation.carried,
            )
        self._readmit(now)
        return True

    def reshape(self, rid: int, *, now: float) -> bool:
        """Re-shape a live reservation's unconsumed tail (malleable verb).

        The tail ``[max(now, σ), τ)`` returns to the ledger and the still
        undelivered volume is re-carved as a stepwise profile into the
        current residual capacity valleys of the same window — stretching
        into quieter intervals or dropping to whatever bandwidth each
        still has (:func:`~repro.control.lifecycle.reshape_tail`).  The
        consumed head is preserved exactly; on failure the original tail
        is restored and the ledger left exactly as found.

        Journaled as its own ``reshape`` op; :meth:`replay` re-applies it
        deterministically.  Returns True when the reservation was
        re-shaped.
        """
        reservation = self.get(rid)
        self._advance(now)
        self._record("reshape", now, rid=rid)
        ok = lifecycle.reshape_tail(reservation, now, self._capacity)
        if ok:
            self.stats.reshaped += 1
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "service_reshapes_total", "Malleable tail re-shapes by effect."
            ).inc(reshaped=str(ok).lower())
            tel.emit("service.reshape", now, rid=rid, reshaped=ok)
        return ok

    def degrade(
        self,
        *,
        side: str,
        port: int,
        amount: float,
        start: float,
        end: float,
        now: float,
    ) -> list[Reservation]:
        """Apply a capacity reduction; displace what no longer fits.

        ``amount`` MB/s of the port's capacity become unavailable over
        ``[start, end)`` (a full outage when ``amount`` reaches the port
        capacity).  Committed reservations that exceed the remaining
        capacity are cancelled latest-start-first — the most recently
        booked work yields to older commitments — with the carried volume
        checkpointed so callers can rebook the residual (``volume −
        carried``), typically with backoff via
        :class:`~repro.control.faults.FaultInjector`.

        Returns the displaced reservations (empty when everything still
        fits).
        """
        degradation = lifecycle.new_degradation(
            self.platform, side=side, port=port, amount=amount, start=start, end=end
        )
        self._advance(now)
        self._record(
            "degrade", now, side=side, port=port, amount=amount, start=start, end=end
        )
        self._ledger.degrade(degradation)
        self._degradations.append(degradation)
        self.stats.degradations += 1
        displaced, freed, reshaped_rids = lifecycle.displace_overflow(
            self._reservations.values(),
            degradation,
            now,
            self.platform,
            self._capacity,
            malleable=self.malleable,
        )
        self.stats.displaced += len(displaced)
        self.stats.reshaped += len(reshaped_rids)
        for released in freed:
            self.stats.freed_volume += released
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.counter(
                "service_degrades_total", "Capacity degradations applied, by side."
            ).inc(side=side)
            if displaced:
                tel.metrics.counter(
                    "service_displacements_total", "Reservations displaced by degradations."
                ).inc(float(len(displaced)))
            fields: dict[str, Any] = {
                "side": side,
                "port": port,
                "amount": amount,
                "start": start,
                "end": end,
                "displaced": [r.rid for r in displaced],
            }
            if reshaped_rids:
                fields["reshaped"] = reshaped_rids
            tel.emit("service.degrade", now, **fields)
        self._readmit(now)
        return displaced

    def _readmit(self, now: float) -> list[Reservation]:
        """Offer freed capacity to the backlog of rejected requests (FIFO)."""
        admitted: list[Reservation] = []
        if not self._backlog:
            return admitted
        keep: list[int] = []
        for rid in self._backlog:
            candidate = lifecycle.readmission_candidate(
                self._reservations[rid].request, self._next_rid, now
            )
            if candidate is None:
                continue  # deadline unreachable forever: prune
            allocation, _probe = self._book(candidate)
            if allocation is None:
                keep.append(rid)
                continue
            new_rid = self._take_rid()
            if new_rid != candidate.rid:
                raise InternalInvariantError(
                    f"re-admission rid drifted: took {new_rid}, booked as {candidate.rid}"
                )
            reservation = Reservation(
                rid=new_rid, request=candidate, allocation=allocation, origin=rid
            )
            self._reservations[new_rid] = reservation
            self.stats.readmitted += 1
            self.stats.readmitted_volume += candidate.volume
            admitted.append(reservation)
            tel = self.telemetry
            if tel.enabled:
                tel.metrics.counter(
                    "service_readmissions_total",
                    "Backlogged requests re-admitted after capacity freed up.",
                ).inc()
                tel.emit("service.readmit", now, rid=new_rid, origin=rid)
        self._backlog = keep
        return admitted

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A canonical, JSON-able digest of the full service state.

        Two services are state-identical iff their snapshots compare equal;
        the replay tests rely on this.
        """
        ledger: dict[str, Any] = {"ingress": [], "egress": []}
        for i in range(self.platform.num_ingress):
            ledger["ingress"].append(list(self._ledger.ingress_timeline(i).segments()))
        for e in range(self.platform.num_egress):
            ledger["egress"].append(list(self._ledger.egress_timeline(e).segments()))
        striped = {}
        for base in sorted(self._striped):
            booking = self._striped[base]
            striped[str(base)] = {
                "allocations": [a.to_dict() for a in booking.allocations] if booking else None,
                "finish": booking.finish if booking else None,
                "cancelled_at": self._striped_cancelled.get(base),
            }
        return {
            "clock": self._clock,
            "next_rid": self._next_rid,
            "reservations": lifecycle.reservation_rows(self.reservations()),
            "striped": striped,
            "backlog": list(self._backlog),
            "degradations": [d.to_dict() for d in self._degradations],
            "ledger": ledger,
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def replay(cls, journal: Journal) -> ReservationService:
        """Rebuild a service from its operation journal.

        The journal header supplies the configuration; the recorded
        operations are re-applied in order.  Because every operation —
        including internal re-admission and displacement — is
        deterministic, the result is state-identical to the service that
        wrote the journal (``snapshot()`` equality).
        """
        header = lifecycle.replay_header(journal, None)
        platform = Platform.from_dict(header["platform"])
        policy = policy_from_name(header.get("policy", "min-bw"))
        service = cls(
            platform,
            policy=policy,
            backlog_limit=int(header.get("backlog_limit", 0)),
            malleable=bool(header.get("malleable", False)),
            journal=None,
        )
        lifecycle.replay_ops(service, journal)
        return service

    # ------------------------------------------------------------------
    def get(self, rid: int) -> Reservation:
        """Look up a reservation by id."""
        try:
            return self._reservations[rid]
        except KeyError:
            raise KeyError(f"unknown reservation {rid}") from None

    def reservations(self) -> list[Reservation]:
        """All point-to-point reservations, in submission order."""
        return [self._reservations[rid] for rid in sorted(self._reservations)]

    def striped_bookings(self) -> dict[int, StripedBooking | None]:
        """Striped submissions by base rid (``None`` marks a rejected one)."""
        return dict(self._striped)

    def degradations(self) -> list[Degradation]:
        """Every capacity degradation applied so far, in order."""
        return list(self._degradations)

    def accept_rate(self) -> float:
        """Served client submissions over all client submissions.

        A client submission counts as served when its own reservation was
        confirmed **or** a later re-admission/rebooking linked to it (via
        ``origin``) was.  Striped submissions count like any other.
        """
        roots = {r.rid for r in self._reservations.values() if r.origin is None}
        total = len(roots) + len(self._striped)
        if total == 0:
            return 0.0
        served: set[int] = set()
        for r in self._reservations.values():
            if r.confirmed:
                served.add(self._root_of(r.rid))
        striped_ok = sum(1 for b in self._striped.values() if b is not None)
        return (len(served & roots) + striped_ok) / total

    def _root_of(self, rid: int) -> int:
        """Follow ``origin`` links back to the original client submission."""
        seen = set()
        while True:
            origin = self._reservations[rid].origin
            if origin is None or origin in seen:
                return rid
            seen.add(rid)
            rid = origin

    def port_usage(self, t: float) -> tuple[list[float], list[float]]:
        """Committed bandwidth per (ingress, egress) port at time ``t``."""
        ins = [self._ledger.ingress_usage_at(i, t) for i in range(self.platform.num_ingress)]
        outs = [self._ledger.egress_usage_at(e, t) for e in range(self.platform.num_egress)]
        return ins, outs

    def max_overcommit(self) -> float:
        """Worst ``usage − effective capacity`` across all ports (≤ 0 ⇔ valid)."""
        return self._ledger.max_overcommit()

    def surviving_schedule(self) -> tuple[RequestSet, ScheduleResult]:
        """The live schedule as (requests, result) for ``verify_schedule``.

        Accepted: every confirmed reservation not terminated early (its
        full allocation holds ledger capacity).  Rejected: client
        submissions that were never admitted.  Terminated reservations
        (cancelled / aborted / displaced) are excluded from both — their
        consumed heads remain in the service ledger but no longer
        constitute scheduled transfers.
        """
        requests = []
        result = ScheduleResult(scheduler=f"service[{self.policy.name}]")
        for r in self.reservations():
            if r.confirmed and r.terminated_at is None:
                requests.append(r.request)
                result.accept(r.allocation)
            elif not r.confirmed:
                requests.append(r.request)
                result.reject(
                    r.rid, r.reject_reason.value if r.reject_reason is not None else "capacity"
                )
        return RequestSet(requests), result
