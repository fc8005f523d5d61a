"""The batching frontier: concurrent HTTP submits → vectorized gateway waves.

Without it, every HTTP submission would reach the gateway alone and the
batcher (sized for admission throughput) would only ever see singleton
batches.  The frontier restores the batch structure the gateway was
built for.  A wave forms by **natural batching**: the first submission
of an event-loop turn schedules the flush with ``loop.call_soon``, and
asyncio runs only the handles that were ready when a turn began, so that
flush runs after every connection handler runnable in the same turn has
parked.  A wave is therefore exactly the submissions that arrived
together — plus, under load, everything that arrived while the previous
wave was being decided.  An idle service answers a lone submission one
loop turn later; a busy one batches harder the busier it is; no timer
and no arrival-rate estimate is involved.  ``max_wave`` pending
submissions flush at once (it bounds how long one synchronous flush
holds the loop).

Every member of a wave is submitted at a single simulated instant (so
the gateway's "a batch never mixes instants" invariant holds by
construction) before the trailing partial batch is drained.  Each
caller's coroutine parks on a future and resumes with its decided
:class:`~repro.gateway.gateway.Ticket`; a structurally invalid
submission fails only its own future, never its wave-mates, and
whatever else a flush runs into, no future of the wave it took is left
pending.

The flush itself is synchronous: the gateway never awaits, so a wave is
decided atomically between event-loop steps — no interleaving hazards,
no locks.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any

from ..core.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..gateway import Gateway
    from ..gateway.gateway import Ticket
    from .clock import ServiceClock

__all__ = ["AdmissionFrontier"]


#: Histogram bounds for ``serve_frontier_wave_size`` (powers of two up to
#: the default ``max_wave``).
WAVE_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class AdmissionFrontier:
    """Coalesces concurrent submits into same-instant :meth:`Gateway.submit` waves."""

    def __init__(self, gateway: Gateway, clock: ServiceClock, *, max_wave: int = 64) -> None:
        if max_wave <= 0:
            raise ConfigurationError(f"max_wave must be positive, got {max_wave}")
        self.gateway = gateway
        self.clock = clock
        self.max_wave = max_wave
        self._pending: list[tuple[dict[str, Any], asyncio.Future[Ticket]]] = []
        self.waves = 0
        self.coalesced = 0
        self._wave_size = gateway.telemetry.metrics.bind_histogram(
            "serve_frontier_wave_size", "Submissions decided per frontier wave.", WAVE_SIZE_BUCKETS
        )

    def __len__(self) -> int:
        return len(self._pending)

    async def submit(self, fields: dict[str, Any], *, at: float) -> Ticket:
        """Park one submission; resumes with the decided ticket.

        ``fields`` are the :meth:`Gateway.submit` keywords minus ``now``;
        ``at`` is the client-observed simulated time (the wave flushes at
        the clock's reading when it closes, which is ≥ ``at``).
        """
        self.clock.observe(at)
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Ticket] = loop.create_future()
        self._pending.append((fields, future))
        if len(self._pending) >= self.max_wave:
            self.flush()
        elif len(self._pending) == 1:
            # First of its wave: flush once every handler that is
            # runnable in this loop turn has parked beside it.  A handle
            # that finds nothing pending (``max_wave`` or a batch got
            # there first) is a no-op, so there is none to track.
            loop.call_soon(self.flush)
        return await future

    async def submit_wave(
        self, entries: list[tuple[dict[str, Any], float]]
    ) -> list[Ticket | BaseException]:
        """Park a client-side batch in one go (``(fields, at)`` pairs).

        Every entry joins the pending wave *before* the first await, so a
        bulk submission coalesces with itself and with any concurrent
        singles already parked.  The caller grouped these deliberately —
        the wave is complete by definition — so it flushes immediately
        rather than waiting for the loop turn to end.
        """
        loop = asyncio.get_running_loop()
        futures: list[asyncio.Future[Ticket]] = []
        for fields, at in entries:
            self.clock.observe(at)
            future: asyncio.Future[Ticket] = loop.create_future()
            self._pending.append((fields, future))
            futures.append(future)
            if len(self._pending) >= self.max_wave:
                self.flush()
        self.flush()
        # gather(return_exceptions=True) so one malformed entry surfaces
        # on its own slot instead of abandoning the rest of the batch
        # (abandoned futures would log "exception was never retrieved").
        return await asyncio.gather(*futures, return_exceptions=True)

    def flush(self) -> None:
        """Decide every parked submission as one wave (synchronous).

        Whatever happens, every future of the wave taken here ends up with
        a result or an exception: the wave is off ``_pending`` from the
        first line on, so nobody else could ever resume its callers.
        """
        if not self._pending:
            return
        wave, self._pending = self._pending, []
        self.waves += 1
        self.coalesced += len(wave)
        if self.gateway.telemetry.enabled:
            self._wave_size.observe(len(wave))
        try:
            self._decide(wave)
        except BaseException as exc:
            for _, future in wave:
                if not future.done():
                    future.set_exception(exc)
            # An ordinary failure has now reached everyone who can act on
            # it (each parked caller raises it); only exits pass through.
            if not isinstance(exc, Exception):
                raise

    def _decide(self, wave: list[tuple[dict[str, Any], asyncio.Future[Ticket]]]) -> None:
        now = self.clock.now()
        # Submit entries one by one so a malformed submission fails only
        # its own future — the rest of the wave still shares one instant.
        accepted: list[tuple[asyncio.Future[Ticket], Ticket]] = []
        for fields, future in wave:
            try:
                accepted.append((future, self.gateway.submit(**fields, now=now)))
            except ReproError as exc:
                if not future.done():
                    future.set_exception(exc)
        # Decide the trailing partial batch, then resolve — tickets are
        # mutated in place when their batch flushes, so resolution must
        # wait until every member of the wave is decided.
        if len(self.gateway.batcher):
            self.gateway.drain(now)
        for future, ticket in accepted:
            if not future.done():
                future.set_result(ticket)

    async def quiesce(self) -> None:
        """Drain hook: decide everything in flight (graceful shutdown)."""
        self.flush()
        # One loop tick so resumed submitters observe their decisions
        # before the caller proceeds with shutdown.
        await asyncio.sleep(0)
