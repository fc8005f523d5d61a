"""``GET /metrics`` — Prometheus text exposition of the live registry.

Nothing new is computed here: the gateway (``gateway_*``), the frontier
(``serve_frontier_wave_size``) and the HTTP edge (``serve_requests_total``,
``serve_request_seconds``, ``serve_decisions_total``) already publish
into the app's :class:`~repro.obs.metrics.MetricsRegistry`; this
endpoint renders it with the registry's own deterministic text
exposition (sorted families, sorted label sets).
"""

from __future__ import annotations

from ....deps import RequestContext
from ....http import HttpRequest, HttpResponse

__all__ = ["handle_metrics"]


async def handle_metrics(ctx: RequestContext, request: HttpRequest) -> HttpResponse:
    text = ctx.app.telemetry.metrics.to_prometheus_text()
    return HttpResponse(
        status=200, text=text, content_type="text/plain; version=0.0.4; charset=utf-8"
    )
