"""Reservation lifecycle endpoints: submit / batch-submit / status / cancel.

Submissions are *validated at the edge* (a malformed body or a
structurally impossible request is a 400 before it reaches the batching
frontier), then parked on the frontier until their wave flushes through
the gateway.  Status reads are pure; ``?explain=1`` upgrades a status
read into the PR-8 causal story (:func:`repro.obs.causal.explain_request`
over the live telemetry + journal).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from .....core.errors import InvalidRequestError
from .....core.profile import RateProfile
from .....core.request import Request
from ....deps import RequestContext
from ....http import HttpError, HttpRequest, HttpResponse

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .....gateway.gateway import Ticket

__all__ = ["handle_cancel", "handle_status", "handle_submit", "handle_submit_batch"]

#: Refuse pathological bulk submissions before they park on the frontier.
MAX_BATCH_SUBMISSIONS = 512
#: Refuse pathological client profiles before they are normalised: every
#: segment is a breakpoint each later search on the port walks past.
MAX_PROFILE_SEGMENTS = 256


def parse_submission(body: Any, ctx: RequestContext) -> tuple[dict[str, Any], float]:
    """One submission dict → gateway ``submit`` keywords + observed ``at``.

    Raises :class:`HttpError` 400 on anything the gateway would refuse as
    *malformed* (as opposed to *rejected*): missing fields, wrong types,
    non-finite numbers (``json.loads`` accepts the ``NaN`` / ``Infinity``
    literals), non-positive volume, a deadline before the arrival instant,
    a profile of more than :data:`MAX_PROFILE_SEGMENTS` segments.
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
    probe_rate = max_rate if max_rate is not None else platform.bottleneck(ingress, egress)
    try:
        # Structural validation without burning a rid: the gateway would
        # raise InvalidRequestError *after* the wave closed, poisoning
        # innocent wave-mates; the probe front-loads it onto this caller.
        Request(
            rid=0,
            ingress=ingress,
            egress=egress,
            volume=volume,
            t_start=at,
            t_end=deadline,
            max_rate=probe_rate,
        )
    except InvalidRequestError as exc:
        raise HttpError(400, f"invalid submission: {exc}") from exc
    fields: dict[str, Any] = {
        "ingress": ingress,
        "egress": egress,
        "volume": volume,
        "deadline": deadline,
        "client": ctx.client,
    }
    if max_rate is not None:
        fields["max_rate"] = max_rate
    profile = body.get("profile")
    if profile is not None:
        # A stepwise (malleable) rate shape: [[t0, t1, rate], ...] in
        # absolute seconds, delivering exactly ``volume`` MB.  Malformed
        # shapes and volume mismatches are the caller's 400, front-loaded
        # here for the same wave-mate-protection reason as the Request
        # probe above.
        if isinstance(profile, list) and len(profile) > MAX_PROFILE_SEGMENTS:
            raise HttpError(
                400, f"profile of {len(profile)} segments exceeds {MAX_PROFILE_SEGMENTS}"
            )
        try:
            wanted = RateProfile.maybe_from(profile)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid profile: {exc}") from exc
        if wanted is None or not wanted:
            raise HttpError(400, "profile must be a non-empty list of [t0, t1, rate]")
        if not wanted.conserves(volume):
            raise HttpError(
                400,
                f"profile delivers {wanted.volume} MB but the submission asks for {volume} MB",
            )
        fields["profile"] = wanted
    return fields, at


def decision_payload(ticket: Ticket, now: float) -> dict[str, Any]:
    """The JSON decision a submitter gets back (single and batch)."""
    if ticket.edge_refused:
        retry = ticket.retry_after
        return {
            "rid": ticket.rid,
            "outcome": "edge-refused",
            "retry_after": None if retry is None or math.isinf(retry) else retry,
        }
    if not ticket.decided:  # pragma: no cover - waves always drain
        return {"rid": ticket.rid, "outcome": "pending"}
    payload: dict[str, Any] = {
        "rid": ticket.rid,
        "outcome": "accepted" if ticket.confirmed else "rejected",
        "state": ticket.state(now).value,
    }
    alloc = ticket.allocation
    if alloc is not None:
        payload["allocation"] = {
            "sigma": alloc.sigma,
            "tau": alloc.tau,
            "bw": alloc.bw,
            "ingress": alloc.ingress,
            "egress": alloc.egress,
        }
        if alloc.profile is not None:
            # Key present only for stepwise grants: constant-rate
            # decision payloads stay byte-identical.
            payload["allocation"]["profile"] = alloc.profile.to_list()
    if ticket.reject_reason is not None:
        payload["reason"] = ticket.reject_reason.value
    return payload


async def handle_submit(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``POST /v1/reservations`` — one submission, decided when its wave flushes."""
    fields, at = parse_submission(request.json(), ctx)
    try:
        ticket = await ctx.app.frontier.submit(fields, at=at)
    except InvalidRequestError as exc:
        # The parse-time probe validates against the *observed* arrival
        # instant, but the wave flushes later — a knife-edge window can
        # become infeasible in between.  Still the caller's 400, not a
        # service fault.
        raise HttpError(400, f"invalid submission: {exc}") from exc
    ctx.app.note_decision(ticket)
    payload = decision_payload(ticket, ctx.app.clock.now())
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
    parsed: list[tuple[dict[str, Any], float] | None] = []
    parse_errors: dict[int, str] = {}
    for index, entry in enumerate(submissions):
        try:
            parsed.append(parse_submission(entry, ctx))
        except HttpError as exc:
            parsed.append(None)
            parse_errors[index] = exc.message
    live = [pair for pair in parsed if pair is not None]
    results = await ctx.app.frontier.submit_wave(live) if live else []
    now = ctx.app.clock.now()
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
        ctx.app.note_decision(result)
        decisions.append(decision_payload(result, now))
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
    payload = decision_payload(ticket, now)
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
        payload["explain"] = ctx.app.explain(rid)
    return HttpResponse(status=200, payload=payload)


async def handle_cancel(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    """``DELETE /v1/reservations/{rid}`` — release the unconsumed tail."""
    rid = _rid_of(request)
    try:
        released = ctx.app.gateway.cancel(rid, now=ctx.app.clock.now())
    except KeyError:
        return HttpResponse.error(404, f"unknown reservation {rid}")
    return HttpResponse(status=200, payload={"rid": rid, "released": released})
