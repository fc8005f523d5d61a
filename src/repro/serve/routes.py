"""The service's route table: every endpoint, declared in one place.

Handlers live under :mod:`repro.serve.api.v1.endpoints` (one module per
resource, the FastAPI layering); this module is the registry that makes
them reachable.  Gridlint GL015 (route-registry completeness) checks the
inverse direction project-wide: an endpoint module may not define a
``handle_*`` coroutine that this table forgets — a forgotten handler
would silently 404 instead of failing the build.

Patterns are literal segments plus ``{name}`` captures (bound into
:attr:`HttpRequest.params` as strings).  Dispatch distinguishes 404
(no pattern matched) from 405 (pattern matched, method didn't).
"""

from __future__ import annotations

from collections.abc import Awaitable, Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError
from .api.v1.endpoints.headroom import handle_headroom
from .api.v1.endpoints.health import handle_healthz
from .api.v1.endpoints.metrics import handle_metrics
from .api.v1.endpoints.reservations import (
    handle_cancel,
    handle_status,
    handle_submit,
    handle_submit_batch,
)
from .http import HttpRequest, HttpResponse

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .deps import RequestContext

Handler = Callable[["RequestContext", HttpRequest], Awaitable[HttpResponse]]

__all__ = ["ROUTE_TABLE", "Route", "Router"]


@dataclass(frozen=True)
class Route:
    """One (method, pattern) → handler binding."""

    method: str
    pattern: str
    handler: Handler

    def segments(self) -> tuple[str, ...]:
        return tuple(seg for seg in self.pattern.split("/") if seg)


#: The complete public API surface, v1.
ROUTE_TABLE: tuple[Route, ...] = (
    Route("POST", "/v1/reservations", handle_submit),
    Route("POST", "/v1/reservations/batch", handle_submit_batch),
    Route("GET", "/v1/reservations/{rid}", handle_status),
    Route("DELETE", "/v1/reservations/{rid}", handle_cancel),
    Route("GET", "/v1/headroom", handle_headroom),
    Route("GET", "/healthz", handle_healthz),
    Route("GET", "/metrics", handle_metrics),
)


@dataclass(frozen=True)
class Resolution:
    """The outcome of routing one (method, path)."""

    handler: Handler | None
    params: dict[str, str]
    path_known: bool
    #: The matched route pattern — the bounded-cardinality metrics label.
    pattern: str | None


class Router:
    """Matches (method, path) against the table; binds path params."""

    def __init__(self, routes: tuple[Route, ...] = ROUTE_TABLE) -> None:
        seen: set[tuple[str, str]] = set()
        for route in routes:
            key = (route.method, route.pattern)
            if key in seen:
                raise ConfigurationError(f"duplicate route {key}")
            seen.add(key)
        self.routes = routes
        #: Each route with its pattern split once, in table order.
        self._split = [(route, route.segments()) for route in routes]

    def resolve(self, method: str, path: str) -> Resolution:
        """Match one request target against the table.

        A resolution without a handler means 405 when ``path_known`` (some
        pattern matched, the method didn't) and 404 otherwise.
        """
        parts = tuple(seg for seg in path.split("/") if seg)
        path_known = False
        for route, segments in self._split:
            params = _match(segments, parts)
            if params is None:
                continue
            path_known = True
            if route.method == method:
                return Resolution(
                    handler=route.handler,
                    params=params,
                    path_known=True,
                    pattern=route.pattern,
                )
        return Resolution(handler=None, params={}, path_known=path_known, pattern=None)


def _match(
    pattern: tuple[str, ...], parts: tuple[str, ...]
) -> dict[str, str] | None:
    if len(pattern) != len(parts):
        return None
    params: dict[str, str] = {}
    for expected, got in zip(pattern, parts):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = got
        elif expected != got:
            return None
    return params
