"""Per-request dependency resolution (the ``deps.py`` of the layering).

Handlers never touch the raw app: they receive a :class:`RequestContext`
that has already resolved who is calling (authentication), whether the
call conforms to the client's request quota, and which app facilities
the endpoint may use.  Building the context is the one place the 401 /
429 / 503 edge responses originate, so every endpoint behaves
identically at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .http import HttpError, HttpRequest

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .app import ServeApp

__all__ = ["RequestContext", "build_context"]

#: Endpoints that stay reachable while the service drains (reads only).
_DRAIN_EXEMPT = {"GET"}


@dataclass
class RequestContext:
    """Everything a handler needs: the app, the caller, the clock readings."""

    app: ServeApp
    client: str
    #: Simulated time the request was admitted to the service at.
    now: float
    #: Wall reading at parse completion (request latency measurement).
    perf_start: float


def api_key_of(request: HttpRequest) -> str | None:
    """Extract the bearer key (``Authorization`` wins over ``X-API-Key``)."""
    auth = request.header("authorization")
    if auth is not None:
        scheme, _, credential = auth.partition(" ")
        if scheme.lower() != "bearer" or not credential.strip():
            raise HttpError(401, "malformed Authorization header (expected Bearer)")
        return credential.strip()
    return request.header("x-api-key")


def build_context(app: ServeApp, request: HttpRequest) -> RequestContext:
    """Authenticate + quota-check one request; raises :class:`HttpError`.

    Ordering matters and is deliberate: drain refusal (503) before
    authentication (401) before quota (429) — a draining service should
    not burn bucket tokens, and an unauthenticated probe should not
    learn quota state.
    """
    if app.draining and request.method not in _DRAIN_EXEMPT:
        raise HttpError(503, "service is draining; retry against the successor")
    client = app.keyring.client_for(api_key_of(request))
    if client is None:
        raise HttpError(401, "unknown or missing API key")
    now = app.clock.now()
    if app.quota is not None and not app.quota.admit(client, 1.0, now):
        raise HttpError(
            429,
            f"request quota exceeded for {client}",
            retry_after=app.quota.retry_after(client, 1.0, now),
        )
    return RequestContext(
        app=app, client=client, now=now, perf_start=app.clock.perf()
    )
