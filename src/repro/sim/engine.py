"""A small deterministic discrete-event simulation engine.

The engine advances a simulation clock through an :class:`EventQueue`,
invoking callbacks in ``(time, priority, insertion)`` order.  It underpins
the max-min fluid simulator (:mod:`repro.fairness.fluid`) and the control
plane (:mod:`repro.control`); the admission heuristics themselves only need
sorted arrival processing and use lighter-weight loops.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any

from ..obs.telemetry import get_telemetry
from .events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulation driver.

    Parameters
    ----------
    start_time:
        Initial clock value.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.queue = EventQueue()
        self._now = start_time
        self._steps = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of events dispatched so far."""
        return self._steps

    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (never in the past)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        return self.queue.push(time, callback, payload, priority)

    def after(
        self,
        delay: float,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.queue.push(self._now + delay, callback, payload, priority)

    def every(
        self,
        interval: float,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = 0,
        *,
        start: float | None = None,
        until: float = math.inf,
    ) -> Event:
        """Schedule ``callback`` periodically: at ``start`` (default
        ``now + interval``) and every ``interval`` after, while the next
        occurrence is ``<= until``.

        Each firing re-schedules the next one lazily, so an infinite
        series costs one pending event at a time and :meth:`run`'s own
        ``until`` bound still terminates it.  Returns the first event.
        Periodic housekeeping (hold-expiry sweeps, progress samples) uses
        this instead of hand-rolled re-scheduling callbacks.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        first = (self._now + interval) if start is None else start

        def fire(event: Event) -> None:
            callback(event)
            next_time = event.time + interval
            if next_time <= until:
                self.queue.push(next_time, fire, payload, priority)

        return self.at(first, fire, payload, priority)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event; returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise RuntimeError(f"time went backwards: {event.time} < {self._now}")
        self._now = event.time
        self._steps += 1
        tel = get_telemetry()
        if tel.enabled:
            label = getattr(event.callback, "__name__", "event")
            tel.metrics.counter(
                "sim_events_total", "Simulation events dispatched, by callback."
            ).inc(label=label)
            tel.tracer.instant(f"sim.{label}", event.time, cat="sim")
        event.callback(event)
        return True

    def run(self, until: float = math.inf, max_steps: int | None = None) -> float:
        """Run until the queue drains, ``until`` is passed, or ``max_steps``.

        Events scheduled exactly at ``until`` are still dispatched.  Returns
        the final clock value.
        """
        started_at = self._now
        steps = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > until:
                break
            if max_steps is not None and steps >= max_steps:
                break
            self.step()
            steps += 1
        if next_time is not None and next_time > until:
            self._now = max(self._now, until)
        elif self.queue.peek_time() is None and until is not math.inf:
            self._now = max(self._now, until)
        tel = get_telemetry()
        if tel.enabled:
            tel.tracer.complete("sim.run", started_at, self._now, cat="sim", steps=steps)
            tel.emit("sim.run", self._now, started_at=started_at, steps=steps)
        return self._now
