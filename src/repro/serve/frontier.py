"""The batching frontier: concurrent HTTP submits → vectorized gateway waves.

Without it, every HTTP submission would reach the gateway alone and the
batcher (sized for admission throughput) would only ever see singleton
batches.  The frontier restores the batch structure the gateway was
built for: in-flight submissions accumulate while the event loop is busy
and are released as one wave —

- immediately once ``max_wave`` submissions are pending, or
- after ``max_delay_s`` wall seconds, whichever comes first —

with every member submitted at a single simulated instant (so the
gateway's "a batch never mixes instants" invariant holds by
construction) before the trailing partial batch is drained.  Each
caller's coroutine parks on a future and resumes with its decided
:class:`~repro.gateway.gateway.Ticket`; a structurally invalid
submission fails only its own future, never its wave-mates.

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


class AdmissionFrontier:
    """Coalesces concurrent submits into same-instant :meth:`Gateway.submit` waves."""

    def __init__(
        self,
        gateway: Gateway,
        clock: ServiceClock,
        *,
        max_wave: int = 64,
        max_delay_s: float = 0.002,
    ) -> None:
        if max_wave <= 0:
            raise ConfigurationError(f"max_wave must be positive, got {max_wave}")
        if max_delay_s < 0:
            raise ConfigurationError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.gateway = gateway
        self.clock = clock
        self.max_wave = max_wave
        self.max_delay_s = max_delay_s
        self._pending: list[tuple[dict[str, Any], asyncio.Future[Ticket]]] = []
        self._timer: asyncio.TimerHandle | None = None
        self.waves = 0
        self.coalesced = 0

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
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay_s, self.flush)
        return await future

    async def submit_wave(
        self, entries: list[tuple[dict[str, Any], float]]
    ) -> list[Ticket | BaseException]:
        """Park a client-side batch in one go (``(fields, at)`` pairs).

        Every entry joins the pending wave *before* the first await, so a
        bulk submission coalesces with itself and with any concurrent
        singles already parked.  The caller grouped these deliberately —
        the wave is complete by definition — so it flushes immediately
        rather than lingering on the timer.
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
        """Decide every parked submission as one wave (synchronous)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        wave, self._pending = self._pending, []
        now = self.clock.now()
        self.waves += 1
        self.coalesced += len(wave)
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
