"""Reservation lifecycle endpoints: submit / batch-submit / status / cancel.

Submissions are *validated at the edge* (a malformed body or a
structurally impossible request is a 400 before it reaches the batching
frontier), then parked on the frontier until their wave flushes through
the gateway.  Status reads are pure; ``?explain=1`` upgrades a status
read into the request's causal story (:meth:`repro.serve.ServeApp.explain`,
rebuilt by replaying the journal).
"""

from __future__ import annotations

import math
from typing import Any

from .....core.errors import InvalidRequestError
from .....core.profile import RateProfile
from .....gateway.gateway import Submission
from .....gateway.lifecycle import check_submission
from .....gateway.tickets import (
    DECIDED, ENDINGS, PENDING, REASONS, ReservationState, TicketTable,
)  # fmt: skip
from ....deps import RequestContext
from ....http import HttpError, HttpRequest, HttpResponse

__all__ = ["handle_cancel", "handle_status", "handle_submit", "handle_submit_batch"]

#: Refuse pathological bulk submissions before they park on the frontier.
MAX_BATCH_SUBMISSIONS = 512
#: Refuse pathological client profiles before they are normalised: every
#: segment is a breakpoint each later search on the port walks past.
MAX_PROFILE_SEGMENTS = 256


def parse_submission(body: Any, ctx: RequestContext) -> tuple[Submission, float]:
    """One submission dict → its :data:`~repro.gateway.gateway.Submission`
    scalars, checked once (:func:`~repro.gateway.lifecycle.check_submission`)
    at the observed ``at``, + that ``at``.

    Raises :class:`HttpError` 400 on anything the gateway would refuse as
    *malformed* (as opposed to *rejected*): missing fields, wrong types,
    non-finite numbers (``json.loads`` accepts the ``NaN`` / ``Infinity``
    literals), an unknown port, non-positive volume, a deadline before the
    arrival instant, a profile of more than :data:`MAX_PROFILE_SEGMENTS`
    segments.
    """
    if not isinstance(body, dict):
        raise HttpError(400, "submission must be a JSON object")
    try:
        ingress, egress = body["ingress"], body["egress"]
        # int() would book port 2 for 2.7, port 1 for true and for "1".
        if type(ingress) is not int or type(egress) is not int:
            raise TypeError("ingress and egress must be JSON integers")
        volume = float(body["volume"])
        deadline = float(body["deadline"])
        max_rate = body.get("max_rate")
        if max_rate is not None:
            max_rate = float(max_rate)
        at = float(body.get("at", ctx.now))
    except KeyError as exc:
        raise HttpError(400, f"submission is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise HttpError(400, f"submission field has a wrong type: {exc}") from exc
    # A NaN compares false with everything, so it would pass every range
    # check below, be journaled write-ahead and blow up inside the wave.
    numbers = (("volume", volume), ("deadline", deadline), ("max_rate", max_rate), ("at", at))
    for name, value in numbers:
        if value is not None and not math.isfinite(value):
            raise HttpError(400, f"{name} must be finite, got {value}")
    at = ctx.app.clock.observe(at)
    platform = ctx.app.gateway.platform
    if not (0 <= ingress < platform.num_ingress):
        raise HttpError(400, f"unknown ingress port {ingress}")
    if not (0 <= egress < platform.num_egress):
        raise HttpError(400, f"unknown egress port {egress}")
    try:
        # Structural validation without burning a rid: the gateway would
        # raise InvalidRequestError *inside* the wave; the check
        # front-loads it onto this caller.
        max_rate, _ = check_submission(
            platform, 0, ingress, egress, volume, deadline, at, max_rate, None
        )
    except InvalidRequestError as exc:
        raise HttpError(400, f"invalid submission: {exc}") from exc
    wanted = body.get("profile")
    if wanted is not None:
        # A stepwise (malleable) rate shape: [[t0, t1, rate], ...] in
        # absolute seconds, delivering exactly ``volume`` MB.  Malformed
        # shapes and volume mismatches are the caller's 400, front-loaded
        # here for the same wave-mate-protection reason as the request
        # check above.
        if isinstance(wanted, list) and len(wanted) > MAX_PROFILE_SEGMENTS:
            raise HttpError(
                400, f"profile of {len(wanted)} segments exceeds {MAX_PROFILE_SEGMENTS}"
            )
        try:
            wanted = RateProfile.maybe_from(wanted)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid profile: {exc}") from exc
        if wanted is None or not wanted:
            raise HttpError(400, "profile must be a non-empty list of [t0, t1, rate]")
        if not wanted.conserves(volume):
            raise HttpError(
                400,
                f"profile delivers {wanted.volume} MB but the submission asks for {volume} MB",
            )
    return (ingress, egress, volume, deadline, max_rate, ctx.client, wanted), at


#: The strings a decision payload reports, read once: states (an early
#: ending's by its code) and reject reasons (by code).
_CONFIRMED, _ACTIVE, _COMPLETED, _REJECTED = (
    ReservationState.CONFIRMED.value, ReservationState.ACTIVE.value,
    ReservationState.COMPLETED.value, ReservationState.REJECTED.value,
)  # fmt: skip
_ENDED = tuple(None if state is None else state.value for state in ENDINGS)
_REASONS = tuple(reason.value for reason in REASONS)


def decision_payload(tickets: TicketTable, rid: int, now: float) -> dict[str, Any]:
    """The JSON decision a submitter gets back (single and batch), read off
    ``rid``'s row of ``tickets`` (no ticket view, request or allocation is
    built)."""
    i = rid - tickets.base
    status = tickets.status[i]
    if status != DECIDED:
        if status == PENDING:  # pragma: no cover - waves always drain
            return {"rid": rid, "outcome": "pending"}
        retry = tickets.retry_after[i]  # refused at the edge
        return {
            "rid": rid,
            "outcome": "edge-refused",
            "retry_after": retry if math.isfinite(retry) else None,
        }
    bw = tickets.bw[i]
    if math.isnan(bw):
        payload: dict[str, Any] = {"rid": rid, "outcome": "rejected", "state": _REJECTED}
    else:
        sigma, tau, ended = tickets.sigma[i], tickets.tau[i], tickets.ended_by[i]
        state = (
            _ENDED[ended] if ended
            else _CONFIRMED if now < sigma
            else _ACTIVE if now < tau
            else _COMPLETED
        )  # fmt: skip
        payload = {"rid": rid, "outcome": "accepted", "state": state}
        allocation = payload["allocation"] = {
            "sigma": sigma,
            "tau": tau,
            "bw": bw,
            "ingress": tickets.ingress[i],
            "egress": tickets.egress[i],
        }
        shapes = tickets.shapes
        if shapes and rid in shapes and shapes[rid][1] is not None:
            # Key present only for stepwise grants: constant-rate
            # decision payloads stay byte-identical.
            allocation["profile"] = shapes[rid][1].to_list()
    reason = tickets.reason[i]
    if reason >= 0:
        payload["reason"] = _REASONS[reason]
    return payload


async def handle_submit(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``POST /v1/reservations`` — one submission, decided when its wave flushes."""
    entry, at = parse_submission(request.json(), ctx)
    try:
        ticket = await ctx.app.frontier.submit(entry, at=at)
    except InvalidRequestError as exc:
        # The parse-time check validates against the *observed* arrival
        # instant, but the wave flushes later — a knife-edge window can
        # become infeasible in between.  Still the caller's 400, not a
        # service fault.
        raise HttpError(400, f"invalid submission: {exc}") from exc
    payload = decision_payload(ticket.table, ticket.rid, ctx.app.clock.now())
    ctx.app.note_decision(ticket.rid, payload["outcome"])
    if ticket.edge_refused:
        response = HttpResponse(status=429, payload=payload)
        retry = payload.get("retry_after")
        if retry is not None:
            response.headers["Retry-After"] = f"{max(0.0, float(retry)):.3f}"
        return response
    status = 201 if payload["outcome"] == "accepted" else 200
    return HttpResponse(status=status, payload=payload)


async def handle_submit_batch(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``POST /v1/reservations/batch`` — a client-side wave of submissions.

    The whole wave parks on the frontier together (the request quota was
    charged one token for the HTTP request, whatever the batch's size)
    and the response carries one decision per entry, in order — an entry
    that fails validation (at parse or at flush) reports ``outcome:
    "invalid"`` in its own slot while its wave-mates decide normally.
    """
    body = request.json()
    if not isinstance(body, dict) or not isinstance(body.get("submissions"), list):
        raise HttpError(400, 'batch body must be {"submissions": [...]}')
    submissions = body["submissions"]
    if not submissions:
        raise HttpError(400, "batch is empty")
    if len(submissions) > MAX_BATCH_SUBMISSIONS:
        raise HttpError(413, f"batch of {len(submissions)} exceeds {MAX_BATCH_SUBMISSIONS}")
    # Per-entry parsing: one stale or malformed entry must not 400 the
    # whole batch (a closed-loop client fleet can outrun its own plan's
    # windows; only the stale entries should pay).
    parsed: list[tuple[Submission, float] | None] = []
    parse_errors: dict[int, str] = {}
    for index, entry in enumerate(submissions):
        try:
            parsed.append(parse_submission(entry, ctx))
        except HttpError as exc:
            parsed.append(None)
            parse_errors[index] = exc.message
    live = [pair for pair in parsed if pair is not None]
    results = await ctx.app.frontier.submit_wave(live) if live else []
    tickets, now, note = ctx.app.gateway.tickets, ctx.app.clock.now(), ctx.app.note_decision
    decisions: list[dict[str, Any]] = []
    cursor = iter(results)
    for index, pair in enumerate(parsed):
        if pair is None:
            decisions.append({"outcome": "invalid", "error": parse_errors[index]})
            continue
        result = next(cursor)
        if isinstance(result, InvalidRequestError):
            # A wave-mate that went infeasible at flush time fails alone:
            # its slot reports the fault, every other decision stands.
            decisions.append({"outcome": "invalid", "error": str(result)})
            continue
        if isinstance(result, BaseException):
            raise result
        payload = decision_payload(tickets, result, now)
        note(result, payload["outcome"])
        decisions.append(payload)
    return HttpResponse(status=200, payload={"decisions": decisions})


def _rid_of(request: HttpRequest) -> int:
    raw = request.params.get("rid", "")
    try:
        return int(raw)
    except ValueError as exc:
        raise HttpError(400, f"reservation id must be an integer, got {raw!r}") from exc


async def handle_status(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``GET /v1/reservations/{rid}`` (+ ``?explain=1`` causal story)."""
    rid = _rid_of(request)
    try:
        ticket = ctx.app.gateway.get(rid)
    except KeyError:
        return HttpResponse.error(404, f"unknown reservation {rid}")
    now = ctx.app.clock.now()
    payload = decision_payload(ticket.table, rid, now)
    payload.update(
        client=ticket.client,
        request={
            "ingress": ticket.request.ingress,
            "egress": ticket.request.egress,
            "volume": ticket.request.volume,
            "deadline": ticket.request.t_end,
            "t_start": ticket.request.t_start,
        },
    )
    if request.query.get("explain") in ("1", "true", "yes"):
        payload["explain"] = await ctx.app.explain(rid)
    return HttpResponse(status=200, payload=payload)


async def handle_cancel(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``DELETE /v1/reservations/{rid}`` — release the unconsumed tail."""
    rid = _rid_of(request)
    try:
        released = ctx.app.gateway.cancel(rid, now=ctx.app.clock.now())
    except KeyError:
        return HttpResponse.error(404, f"unknown reservation {rid}")
    return HttpResponse(status=200, payload={"rid": rid, "released": released})
