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
3. the gateway's complete state is journaled as one ``checkpoint``
   entry, the journal's append handle closes (write-ahead: every entry is
   already flushed) and the server sockets close;
4. a successor built with the same journal path restores that checkpoint
   (replaying only what follows it — nothing, after a clean drain; the
   whole journal after a crash with no checkpoint) into a snapshot-equal
   gateway and resumes the clock at the recorded time.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from ..core.errors import ConfigurationError, ReproError
from ..core.platform import Platform
from ..gateway import EdgeLimit, EdgeLimiter, Gateway, lifecycle
from ..gateway.journal import CHECKPOINT_PREFIX, Journal, JournalEntry, naming
from ..gateway.tickets import Ticket
from ..obs.causal import TraceContext, explain_request
from ..obs.metrics import BoundCounter, BoundHistogram, Sample
from ..obs.slo import SloRule, SloWatchdog, default_slo_rules
from ..obs.telemetry import NullTelemetry, Telemetry, use_telemetry
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

#: Journal entries :meth:`ServeApp.explain` replays between yields to the loop.
EXPLAIN_CHUNK = 256


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
    read from the ticket (whose rid and client never change): its fields
    lead with the rid and end with the HTTP-edge hop ``req-<rid>/http`` of
    the request's causal trace."""

    t: float
    ticket: Ticket
    outcome: str

    def event(self) -> tuple[float, str, dict[str, Any]]:
        rid = self.ticket.rid
        fields = {"rid": rid, "client": self.ticket.client, "outcome": self.outcome}
        fields.update(TraceContext.root(rid).child("http").fields())
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
        # By default metrics only: explain rebuilds a story by replay.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(max_events=0, max_spans=0)
        )
        rules = (
            default_slo_rules(hold_ttl=config.hold_ttl)
            if config.slo_rules is None
            else config.slo_rules
        )
        watchdog = SloWatchdog(rules) if rules else None
        self.journal, resume = self._attach_journal(config)
        settings: dict[str, Any] = {
            "num_shards": config.num_shards,
            "batch_size": config.batch_size,
            "ordering": config.ordering,
            "edge": config.edge,
            "hold_ttl": config.hold_ttl,
            "backlog_limit": config.backlog_limit,
            "malleable": config.malleable,
        }
        if resume:
            self.gateway = Gateway.resume(
                self.journal, telemetry=self.telemetry, slo=watchdog
            )
            # The journal's header configures the resumed gateway, so a
            # setting of this config that disagrees with it would be
            # silently ignored: refuse it.  Header fields no config sets
            # (chaos, backoff, ...) resume as the journal recorded them.
            wanted = Gateway(config.platform, **settings).header()
            found = self.gateway.header()
            changed = sorted(
                key for key in ("platform", *settings) if wanted.get(key) != found.get(key)
            )
            if changed:
                raise ConfigurationError(
                    f"journal {config.journal_path} was written with a different "
                    f"configuration: {', '.join(changed)} differ"
                )
        else:
            self.gateway = Gateway(
                config.platform,
                **settings,
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
        # Decisions served are plain counts the registry reads on render.
        self._decisions = dict.fromkeys(("accepted", "rejected", "edge-refused"), 0)
        self.telemetry.metrics.register(self._collect)
        #: (endpoint, method, status) -> that request kind's two samples;
        #: endpoints are route patterns, so the map stays small.
        self._request_samples: dict[
            tuple[str, str, int], tuple[BoundCounter, BoundHistogram]
        ] = {}
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._connections = 0
        #: Held by the one :meth:`explain` replay that may run.
        self._explaining = asyncio.Lock()

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
        """Graceful shutdown: refuse new work, decide in-flight, checkpoint.

        The journal is write-ahead (every entry is flushed as it is
        appended), so no operation needs an explicit save.  The explicit
        gateway drain makes the final batch flush visible in the op stream
        (``drain``); the ``checkpoint`` right after it holds the decided
        state, so the successor's :meth:`Gateway.resume
        <repro.gateway.Gateway.resume>` restores it instead of re-deciding
        every journaled submission.  A checkpoint cut short by a crash is
        dropped by the journal's torn-line repair, and the successor falls
        back to the previous checkpoint or a full replay.
        """
        self.draining = True
        await self.frontier.quiesce()
        self.gateway.drain(self.clock.now())
        self.gateway.checkpoint()
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
    def note_decision(self, rid: int, outcome: str) -> None:
        """Record the HTTP-edge hop on request ``rid``'s causal timeline;
        ``outcome`` is what the submitter was answered (``accepted``,
        ``rejected`` or ``edge-refused``).

        The gateway already owns the root ``req-<rid>`` trace; the edge
        adds its own child span so ``grid-obs explain`` shows where the
        request *entered*, not just how it was decided.  Stored as a
        record of decision-time values, when the handle keeps records; the
        event renders on read.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        if telemetry.traced:
            telemetry.store(_Served(self.clock.now(), Ticket(self.gateway.tickets, rid), outcome))
        self._decisions[outcome] += 1

    def _collect(self) -> dict[Sample, float]:
        """``serve_decisions_total`` by outcome, read when the registry renders."""
        help_text = "Admission decisions served, by outcome."
        return {
            ("serve_decisions_total", help_text, (("outcome", outcome),)): count
            for outcome, count in self._decisions.items()
        }

    # ------------------------------------------------------------------
    # Explain (the PR-8 causal plane over HTTP)
    # ------------------------------------------------------------------
    async def explain(self, rid: int) -> str | None:
        """Request ``rid``'s :func:`~repro.obs.causal.explain_request` story
        (``None``: no such ticket), its records rebuilt by replaying the
        journal's lines as this is called into a throwaway gateway: from the
        last checkpoint at or before the submission of the rid's first
        ancestor (``root``) or from the header, traced from that submission
        on, to the last entry that names a rid on ``root``'s trace or later
        while ``root`` is backlogged, serving the loop every
        :data:`EXPLAIN_CHUNK` entries.  A traced submission's
        ``serve.decision`` is stored when the replay decides it, at its
        wave's instant (:meth:`note_decision` stores it live, right after
        the wave).  Replayed searches count nowhere, live ones still do.
        One replay (and one copy of the lines) at a time: an overlapping
        call waits, then answers as if made after the other."""
        async with self._explaining:
            try:
                root = self.gateway.get(rid)
            except KeyError:
                return None
            while root.origin is not None:
                root = self.gateway.get(root.origin)
            lines, watched, marker = self.journal.lines(), {rid, root.rid}, f"req-{root.rid}"
            named = naming(watched)
            hits = [k for k, line in enumerate(lines) if named(line)]  # the first: root's submit
            first, last = (hits[0], hits[-1]) if hits else (0, 0)
            before = range(first - 1, -1, -1)
            start = next((k for k in before if lines[k].startswith(CHECKPOINT_PREFIX)), -1)
            checkpoint = None if start < 0 else _decode(lines[start])
            replay = Gateway.restored(self.journal.header, checkpoint)
            quiet, telemetry = NullTelemetry(), Telemetry()
            replay.telemetry = quiet

            def served(ticket: Ticket, now: float) -> None:
                telemetry.store(_Served(now, ticket, _outcome(ticket)))

            for k in range(start + 1, len(lines)):
                if k == first:
                    replay.telemetry, replay.on_decision = telemetry, served
                entry = _decode(lines[k])
                with use_telemetry(quiet):  # process-wide, and nothing awaits inside
                    lifecycle.replay_ops(replay, (entry,))
                if k >= first and entry.op == "submit":
                    if (ticket := replay.get(entry.args["rid"])).edge_refused:
                        served(ticket, entry.now)  # never batched: decided at its submit
                if k >= last and not replay.pending() and not replay.backlogged(root.rid):
                    joined = set(replay.joined(marker)) - watched
                    if joined:
                        watched |= joined
                        named = naming(joined)
                        later = (j for j in range(k + 1, len(lines)) if named(lines[j]))
                        last = max([last, *later])
                    if k >= last:
                        break
                if k % EXPLAIN_CHUNK == 0:
                    await asyncio.sleep(0)
            capture = {
                "label": "serve",
                "events": [event.to_dict() for event in telemetry.events],
                "spans": telemetry.tracer.to_dicts(),
            }
            cites = naming([rid])
            cited = [_decode(lines[k]) for k in hits if cites(lines[k])]
            return explain_request({"captures": [capture]}, rid, journal=cited)

    # ------------------------------------------------------------------
    # Introspection for benches and tests
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The gateway snapshot (state identity across drain/restart)."""
        return self.gateway.snapshot()


def _outcome(ticket: Ticket) -> str:
    """A decided submission's outcome as its submitter was answered."""
    if ticket.edge_refused:
        return "edge-refused"
    return "accepted" if ticket.confirmed else "rejected"


def _decode(line: str) -> JournalEntry:
    return JournalEntry.from_dict(json.loads(line))

