""":class:`ServeApp` — wiring, request dispatch, and lifecycle.

One app owns one :class:`~repro.gateway.Gateway` plus everything the
HTTP boundary needs around it: the service clock, the API keyring, the
per-client request quota, the batching frontier, the telemetry handle
the ``/metrics`` endpoint exposes, and the write-ahead journal that
makes a drained service restartable.

Lifecycle contract (the drain/restart property tests pin this down):

1. ``SIGTERM`` (or :meth:`drain`) flips :attr:`draining` — new mutating
   requests are refused with 503 while reads stay served;
2. the frontier quiesces: every in-flight submission is decided and
   answered (journaled like any other wave);
3. the journal is flushed (write-ahead: it already is) and the server
   sockets close;
4. a successor built with the same journal path replays into a
   snapshot-equal gateway and resumes the clock at the replayed time.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from ..control.journal import Journal
from ..core.errors import ConfigurationError, ReproError
from ..core.platform import Platform
from ..gateway import EdgeLimit, EdgeLimiter, Gateway
from ..gateway.gateway import Ticket
from ..obs.causal import TraceContext, explain_request
from ..obs.artifact import RunTelemetry
from ..obs.metrics import BoundCounter, BoundHistogram
from ..obs.slo import SloRule, SloWatchdog, default_slo_rules
from ..obs.telemetry import Telemetry
from .clock import ServiceClock, WallServiceClock
from .deps import build_context
from .frontier import AdmissionFrontier
from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    render_response,
)
from .routes import Router
from .security import ApiKeyring

__all__ = ["ServeApp", "ServeConfig"]

#: Wall-latency buckets for the HTTP edge (seconds): sub-millisecond to
#: multi-second, log-ish spacing.
REQUEST_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: Telemetry FIFO caps — a long-running service must stay memory-bounded;
#: evictions are counted, not silent (``events_dropped``).
MAX_EVENTS = 50_000
MAX_SPANS = 50_000


@dataclass
class ServeConfig:
    """Everything needed to build (or rebuild) a service instance."""

    platform: Platform
    num_shards: int = 1
    batch_size: int = 8
    ordering: str = "fifo"
    hold_ttl: float = 300.0
    backlog_limit: int = 0
    #: Malleable transfers: shaped-profile fallback after constant-rate
    #: rejects and reshape-before-displace recovery (off = decision-
    #: identical to the constant-rate service).
    malleable: bool = False
    #: Per-client *volume* limit enforced inside the gateway edge.
    edge: EdgeLimit | None = None
    #: Per-client *request-count* quota enforced at the HTTP edge
    #: (the same limiter, one token per request).
    quota: EdgeLimit | None = None
    #: API key → client identity; empty = open access (dev / bench).
    keys: dict[str, str] = field(default_factory=dict)
    #: SLO rules for the watchdog; ``None`` = scaled defaults, ``()`` = off.
    slo_rules: tuple[SloRule, ...] | None = None
    #: Write-ahead journal location; ``None`` = in-memory only.
    journal_path: Path | None = None
    #: Frontier shape: the most submissions one synchronous flush decides
    #: (a wave is otherwise whatever arrived in one event-loop turn).
    max_wave: int = 64

    def __post_init__(self) -> None:
        if self.journal_path is not None:
            self.journal_path = Path(self.journal_path)


class _Served(NamedTuple):
    """The ``serve.decision`` event of one answered submission, rendered on
    read: its fields lead with the rid and end with the HTTP-edge hop
    ``req-<rid>/http`` of the request's causal trace."""

    t: float
    rid: int
    client: str
    outcome: str

    def event(self) -> tuple[float, str, dict[str, Any]]:
        fields = {"rid": self.rid, "client": self.client, "outcome": self.outcome}
        fields.update(TraceContext.root(self.rid).child("http").fields())
        return self.t, "serve.decision", fields


class ServeApp:
    """The service plane around one admission gateway."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        clock: ServiceClock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(max_events=MAX_EVENTS, max_spans=MAX_SPANS)
        )
        rules = (
            default_slo_rules(hold_ttl=config.hold_ttl)
            if config.slo_rules is None
            else config.slo_rules
        )
        watchdog = SloWatchdog(rules) if rules else None
        self.journal, resume = self._attach_journal(config)
        if resume:
            self.gateway = Gateway.resume(
                self.journal, telemetry=self.telemetry, slo=watchdog
            )
        else:
            self.gateway = Gateway(
                config.platform,
                num_shards=config.num_shards,
                batch_size=config.batch_size,
                ordering=config.ordering,
                edge=config.edge,
                hold_ttl=config.hold_ttl,
                backlog_limit=config.backlog_limit,
                malleable=config.malleable,
                journal=self.journal,
                telemetry=self.telemetry,
                slo=watchdog,
            )
        self.clock: ServiceClock = (
            clock if clock is not None else WallServiceClock(origin=max(0.0, self.gateway.now))
        )
        self.keyring = ApiKeyring(config.keys)
        self.quota = EdgeLimiter(config.quota) if config.quota is not None else None
        self.frontier = AdmissionFrontier(self.gateway, self.clock, max_wave=config.max_wave)
        self.router = Router()
        # Metric samples are bound once per label set: binding registers
        # nothing, so a family shows on ``/metrics`` from its first firing.
        self._decisions = {
            outcome: self.telemetry.metrics.bind_counter(
                "serve_decisions_total", "Admission decisions served, by outcome.", outcome=outcome
            )
            for outcome in ("accepted", "rejected", "edge-refused")
        }
        #: (endpoint, method, status) -> that request kind's two samples;
        #: endpoints are route patterns, so the map stays small.
        self._request_samples: dict[
            tuple[str, str, int], tuple[BoundCounter, BoundHistogram]
        ] = {}
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._connections = 0

    @staticmethod
    def _attach_journal(config: ServeConfig) -> tuple[Journal, bool]:
        """The write-ahead journal, plus whether it holds prior history."""
        path = config.journal_path
        if path is None:
            return Journal(), False
        if path.exists() and path.stat().st_size > 0:
            return Journal.load(path), True
        path.parent.mkdir(parents=True, exist_ok=True)
        return Journal(path=path), False

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Close the listening sockets (connections finish their request)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, decide in-flight, persist.

        The journal is write-ahead (every entry is flushed as it is
        appended) so nothing needs an explicit save, only its append
        handle closing; the explicit gateway drain makes the final batch
        flush visible in the op stream (``drain``), which is what makes
        the successor's replay land on the *decided* state.
        """
        self.draining = True
        await self.frontier.quiesce()
        self.gateway.drain(self.clock.now())
        self.journal.close()
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        render_response(
                            HttpResponse.error(exc.status, exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self.dispatch(request)
                keep = request.keep_alive
                writer.write(render_response(response, keep_alive=keep))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return  # client went away mid-exchange; nothing to answer
        finally:
            # No await here: the task may be mid-cancellation (loop
            # shutdown), and awaiting wait_closed would re-raise inside
            # finally.  close() is fire-and-forget and sufficient.
            self._connections -= 1
            writer.close()

    async def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request through deps → handler, with edge accounting."""
        start = self.clock.perf()
        resolution = self.router.resolve(request.method, request.path)
        endpoint = resolution.pattern if resolution.pattern is not None else "unrouted"
        try:
            if resolution.handler is None:
                if resolution.path_known:
                    response = HttpResponse.error(405, f"{request.method} not allowed")
                else:
                    response = HttpResponse.error(404, f"no route for {request.path}")
            else:
                request.params = resolution.params
                ctx = build_context(self, request)
                response = await resolution.handler(ctx, request)
        except HttpError as exc:
            response = HttpResponse.error(exc.status, exc.message)
            if exc.retry_after is not None and math.isfinite(exc.retry_after):
                response.headers["Retry-After"] = f"{max(0.0, exc.retry_after):.3f}"
        except ReproError as exc:
            response = HttpResponse.error(500, f"internal error: {exc}")
        self._observe_request(endpoint, request.method, response.status, start)
        return response

    def _observe_request(
        self, endpoint: str, method: str, status: int, start: float
    ) -> None:
        if not self.telemetry.enabled:
            return
        elapsed = max(0.0, self.clock.perf() - start)
        kind = (endpoint, method, status)
        samples = self._request_samples.get(kind)
        if samples is None:
            metrics = self.telemetry.metrics
            samples = self._request_samples[kind] = (
                metrics.bind_counter(
                    "serve_requests_total",
                    "HTTP requests by endpoint and status.",
                    endpoint=endpoint,
                    method=method,
                    status=status,
                ),
                metrics.bind_histogram(
                    "serve_request_seconds",
                    "Wall-clock request latency at the HTTP edge (seconds).",
                    REQUEST_LATENCY_BUCKETS,
                    endpoint=endpoint,
                ),
            )
        requests, seconds = samples
        requests.inc()
        seconds.observe(elapsed)

    # ------------------------------------------------------------------
    # Decision-side accounting (submit endpoints)
    # ------------------------------------------------------------------
    def note_decision(self, ticket: Ticket) -> None:
        """Record the HTTP-edge hop on the request's causal timeline.

        The gateway already owns the root ``req-<rid>`` trace; the edge
        adds its own child span so ``grid-obs explain`` shows where the
        request *entered*, not just how it was decided.  Stored as a
        record of decision-time values; the event renders on read.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        if ticket.edge_refused:
            outcome = "edge-refused"
        else:
            outcome = "accepted" if ticket.confirmed else "rejected"
        telemetry.store(_Served(self.clock.now(), ticket.rid, ticket.client, outcome))
        self._decisions[outcome].inc()

    # ------------------------------------------------------------------
    # Explain (the PR-8 causal plane over HTTP)
    # ------------------------------------------------------------------
    def explain(self, rid: int) -> str | None:
        """One request's merged journal + telemetry story (or ``None``)."""
        artifact = RunTelemetry("serve-live")
        artifact.capture("serve", self.telemetry)
        return explain_request(artifact, rid, journal=self.journal)

    # ------------------------------------------------------------------
    # Introspection for benches and tests
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The gateway snapshot (state identity across drain/restart)."""
        return self.gateway.snapshot()
