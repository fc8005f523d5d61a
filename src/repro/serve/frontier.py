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

A wave is one :meth:`~repro.gateway.gateway.Gateway.submit_checked`
call on submissions the edge already checked: every member is submitted
at a single simulated instant (so the gateway's "a batch never mixes
instants" invariant holds by construction) before the trailing partial
batch is drained, and the wave's journal entries go out as one write
before anyone is answered.  A single submission's coroutine parks on a
future and resumes with its decided :class:`~repro.gateway.tickets.Ticket`;
a :meth:`~AdmissionFrontier.submit_wave` call flushes at once, parks on
none and is answered with rids.  A structurally invalid submission
fails only its own future or slot, never its wave-mates, and whatever
else a flush runs into, nobody of the wave it took is left unanswered.

The flush itself is synchronous: the gateway never awaits, so a wave is
decided atomically between event-loop steps — no interleaving hazards,
no locks.
"""

from __future__ import annotations

import asyncio
import math
from typing import TYPE_CHECKING, Any

from ..core.errors import ConfigurationError, ReproError
from ..gateway.tickets import Ticket

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..gateway import Gateway
    from ..gateway.gateway import Submission
    from .clock import ServiceClock

__all__ = ["AdmissionFrontier"]


#: Histogram bounds for ``serve_frontier_wave_size`` (powers of two up to
#: the default ``max_wave``).
WAVE_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class AdmissionFrontier:
    """Coalesces concurrent submits into same-instant :meth:`Gateway.submit_checked` waves."""

    def __init__(self, gateway: Gateway, clock: ServiceClock, *, max_wave: int = 64) -> None:
        if max_wave <= 0:
            raise ConfigurationError(f"max_wave must be positive, got {max_wave}")
        self.gateway = gateway
        self.clock = clock
        self.max_wave = max_wave
        #: Parked submissions and where each is answered: a single
        #: submission's future, or a :meth:`submit_wave` entry's slot
        #: ``(results, index)`` in its call's result list.
        self._pending: list[tuple[Submission, Any]] = []
        self.waves = 0
        self.coalesced = 0
        self._wave_size = gateway.telemetry.metrics.bind_histogram(
            "serve_frontier_wave_size", "Submissions decided per frontier wave.", WAVE_SIZE_BUCKETS
        )

    def __len__(self) -> int:
        return len(self._pending)

    async def submit(self, entry: Submission, *, at: float) -> Ticket:
        """Park one submission; resumes with the decided ticket.

        ``entry`` is a submission :func:`~repro.gateway.lifecycle.check_submission`
        passed (:data:`~repro.gateway.gateway.Submission`); ``at`` is the
        client-observed simulated time (the wave flushes at the clock's
        reading when it closes, which is ≥ ``at``).
        """
        self.clock.observe(at)
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Ticket] = loop.create_future()
        self._pending.append((entry, future))
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
        self, entries: list[tuple[Submission, float]]
    ) -> list[int | BaseException]:
        """Park a client-side batch in one go (``(entry, at)`` pairs).

        Every entry joins the pending wave *before* the first await, so a
        bulk submission coalesces with itself and with any concurrent
        singles already parked.  The caller grouped these deliberately —
        the wave is complete by definition — so it flushes immediately
        rather than waiting for the loop turn to end — and so it parks no
        future at all: every entry is answered, its rid or an exception in
        its own slot (a malformed entry fails alone), by the time that
        synchronous flush returns.  The clock observes the latest ``at`` so
        far once per flush, not once per entry.
        """
        results: list[Any] = [None] * len(entries)
        latest = -math.inf
        for index, (entry, at) in enumerate(entries):
            if at > latest:
                latest = at
            self._pending.append((entry, (results, index)))
            if len(self._pending) >= self.max_wave:
                self.clock.observe(latest)
                self.flush()
        self.clock.observe(latest)
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
        gateway = self.gateway
        if gateway.telemetry.enabled:
            self._wave_size.observe(len(wave))
        try:
            # Ticket rows are written as their batches flush: nobody is
            # answered before the whole wave is decided (and journaled).
            results = gateway.submit_checked([entry for entry, _ in wave], now=self.clock.now())
        except BaseException as exc:
            for _, answer in wave:
                if type(answer) is tuple:
                    answer[0][answer[1]] = exc
                elif not answer.done():
                    answer.set_exception(exc)
            # An ordinary failure has now reached everyone who can act on
            # it (each parked caller raises it); only exits pass through.
            if not isinstance(exc, Exception):
                raise
            return
        for (_, answer), result in zip(wave, results):
            if type(answer) is tuple:  # a submit_wave slot: the rid, or its failure
                answer[0][answer[1]] = result
            elif answer.done():  # its caller was cancelled
                continue
            elif isinstance(result, ReproError):  # a malformed entry fails alone
                answer.set_exception(result)
            else:
                answer.set_result(Ticket(gateway.tickets, result))

    async def quiesce(self) -> None:
        """Drain hook: decide everything in flight (graceful shutdown)."""
        self.flush()
        # One loop tick so resumed submitters observe their decisions
        # before the caller proceeds with shutdown.
        await asyncio.sleep(0)

