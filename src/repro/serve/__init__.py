"""``repro.serve`` — the asyncio admission service plane.

Everything below this package runs *online*: requests arrive over a real
network boundary (HTTP/1.1 on asyncio streams, stdlib only), are
authenticated and rate-limited per client, coalesced by the batching
frontier into :class:`~repro.gateway.Gateway` flushes, and answered with
the gateway's decision.  The gateway itself stays a deterministic,
simulated-time library — the service maps wall-clock onto the gateway's
forward-only clock at exactly one seam (:mod:`repro.serve.clock`, the
GL001-allowlisted module) and journals every state change, so a drained
service restarts via :meth:`~repro.gateway.Gateway.replay` into a
snapshot-equal state.

Layering (the FastAPI idiom on stdlib):

- :mod:`repro.serve.http` — wire format: request parsing, responses;
- :mod:`repro.serve.routes` — the route table (method, pattern) → handler;
- :mod:`repro.serve.api.v1.endpoints` — one module per resource;
- :mod:`repro.serve.deps` — per-request context resolution (auth, app);
- :mod:`repro.serve.security` — API keys (the request quota is the gateway's
  :class:`~repro.gateway.EdgeLimiter`, asked in ``deps``);
- :mod:`repro.serve.frontier` — the batching frontier (submit hot path);
- :mod:`repro.serve.app` — :class:`ServeApp`: wiring + lifecycle;
- :mod:`repro.serve.cli` — the ``grid-serve`` entry point.
"""

from __future__ import annotations

from .app import ServeApp, ServeConfig
from .clock import LogicalClock, ServiceClock, WallServiceClock
from .frontier import AdmissionFrontier
from .http import HttpError, HttpRequest, HttpResponse
from .routes import ROUTE_TABLE, Route, Router
from .security import ApiKeyring

__all__ = [
    "ROUTE_TABLE",
    "AdmissionFrontier",
    "ApiKeyring",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "LogicalClock",
    "Route",
    "Router",
    "ServeApp",
    "ServeConfig",
    "ServiceClock",
    "WallServiceClock",
]
