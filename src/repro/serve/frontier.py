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

A wave is one :meth:`~repro.gateway.gateway.Gateway.submit_many` call:
every member is submitted at a single simulated instant (so the
gateway's "a batch never mixes instants" invariant holds by
construction) before the trailing partial batch is drained, and the
wave's journal entries go out as one write before anyone is answered.
A single submission's coroutine parks on a future and resumes with its
decided :class:`~repro.gateway.tickets.Ticket`; a
:meth:`~AdmissionFrontier.submit_wave` call flushes at once and parks
on none.  A structurally invalid submission fails only its own future or
slot, never its wave-mates, and whatever else a flush runs into, nobody
of the wave it took is left unanswered.

The flush itself is synchronous: the gateway never awaits, so a wave is
decided atomically between event-loop steps — no interleaving hazards,
no locks.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, NamedTuple

from ..core.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..gateway import Gateway
    from ..gateway.tickets import Ticket
    from .clock import ServiceClock

__all__ = ["AdmissionFrontier"]


#: Histogram bounds for ``serve_frontier_wave_size`` (powers of two up to
#: the default ``max_wave``).
WAVE_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _Slot(NamedTuple):
    """A :meth:`AdmissionFrontier.submit_wave` entry's place in its call's
    result list, answered as a single submission's future is."""

    results: list[Any]
    index: int

    def done(self) -> bool:
        return self.results[self.index] is not _OPEN

    def set_result(self, result: Ticket | BaseException) -> None:
        self.results[self.index] = result

    #: A failed entry's exception takes its place in the list.
    set_exception = set_result


#: A :class:`_Slot` not answered yet.
_OPEN: Any = object()

#: A parked submission: its fields, and where it is answered.
_Parked = tuple[dict[str, Any], "asyncio.Future[Ticket] | _Slot"]


class AdmissionFrontier:
    """Coalesces concurrent submits into same-instant :meth:`Gateway.submit_many` waves."""

    def __init__(self, gateway: Gateway, clock: ServiceClock, *, max_wave: int = 64) -> None:
        if max_wave <= 0:
            raise ConfigurationError(f"max_wave must be positive, got {max_wave}")
        self.gateway = gateway
        self.clock = clock
        self.max_wave = max_wave
        #: Parked submissions and where each is answered.
        self._pending: list[_Parked] = []
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
        rather than waiting for the loop turn to end — and so it parks no
        future at all: every entry is answered, one ticket or exception in
        its own slot (a malformed entry fails alone), by the time that
        synchronous flush returns.
        """
        results: list[Any] = [_OPEN] * len(entries)
        for index, (fields, at) in enumerate(entries):
            self.clock.observe(at)
            self._pending.append((fields, _Slot(results, index)))
            if len(self._pending) >= self.max_wave:
                self.flush()
        self.flush()
        return results

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
            # Ticket rows are written as their batches flush: nobody is
            # answered before the whole wave is decided (and journaled).
            results = self.gateway.submit_many([fields for fields, _ in wave], now=self.clock.now())
        except BaseException as exc:
            for _, future in wave:
                if not future.done():
                    future.set_exception(exc)
            # An ordinary failure has now reached everyone who can act on
            # it (each parked caller raises it); only exits pass through.
            if not isinstance(exc, Exception):
                raise
            return
        for (_, future), result in zip(wave, results):
            if future.done():
                continue
            if isinstance(result, ReproError):  # a malformed entry fails alone
                future.set_exception(result)
            else:
                future.set_result(result)

    async def quiesce(self) -> None:
        """Drain hook: decide everything in flight (graceful shutdown)."""
        self.flush()
        # One loop tick so resumed submitters observe their decisions
        # before the caller proceeds with shutdown.
        await asyncio.sleep(0)
