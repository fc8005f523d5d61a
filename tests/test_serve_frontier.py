"""The batching frontier, counted in event-loop turns.

A wave is whatever arrived in one turn of the loop: the first submit
schedules the flush with ``call_soon`` and every handler that was
runnable in the same turn parks before it runs.  Nothing here sleeps on
a wall clock — each ``await asyncio.sleep(0)`` is exactly one turn — so
the tests pin *when* a wave closes, not how long it took.
"""

import asyncio

import pytest

from repro.core.platform import Platform
from repro.gateway import Gateway
from repro.obs.telemetry import NullTelemetry, Telemetry
from repro.serve.clock import LogicalClock
from repro.serve.frontier import AdmissionFrontier


class CountingClock(LogicalClock):
    """A logical clock that counts how often a wave asked it the time."""

    reads = 0

    def now(self) -> float:
        self.reads += 1
        return super().now()


def make_frontier(*, telemetry=None, **kwargs) -> AdmissionFrontier:
    gateway = Gateway(
        Platform.uniform(4, 4, 100.0),
        num_shards=2,
        batch_size=4,
        telemetry=telemetry if telemetry is not None else NullTelemetry(),
    )
    return AdmissionFrontier(gateway, CountingClock(), **kwargs)


def fields(i: int) -> dict:
    return dict(
        ingress=i % 4, egress=(i + 1) % 4, volume=10.0, deadline=200.0, client="anonymous"
    )


def park(frontier: AdmissionFrontier, indices) -> list[asyncio.Task]:
    """One submit task per index, created (not yet run) in index order."""
    return [
        asyncio.ensure_future(frontier.submit(fields(i), at=float(i))) for i in indices
    ]


async def turns(count: int = 1) -> None:
    for _ in range(count):
        await asyncio.sleep(0)


def test_lone_submit_on_an_idle_loop_is_decided_in_three_turns(monkeypatch):
    async def main():
        loop = asyncio.get_running_loop()

        def no_timers(*args, **kwargs):
            raise AssertionError("the frontier must not arm a timer")

        monkeypatch.setattr(loop, "call_later", no_timers)
        monkeypatch.setattr(loop, "call_at", no_timers)
        frontier = make_frontier()
        (task,) = park(frontier, [0])
        # Turn 1 parks it, turn 2 runs the flush, turn 3 resumes the caller.
        await turns(3)
        assert task.done() and task.result().decided
        assert (frontier.waves, frontier.coalesced) == (1, 1)

    asyncio.run(main())


def test_submits_of_one_turn_share_one_wave_one_instant_fifo():
    async def main():
        frontier = make_frontier()
        tasks = park(frontier, range(8))
        await turns(1)
        assert len(frontier) == 8 and frontier.waves == 0  # parked, flush still queued
        tickets = await asyncio.gather(*tasks)
        assert (frontier.waves, frontier.coalesced) == (1, 8)
        rids = [t.rid for t in tickets]
        assert rids == sorted(rids) and len(set(rids)) == 8
        # One clock read for the wave; everyone is submitted at the
        # latest observed ``at``.
        assert frontier.clock.reads == 1
        assert {t.request.t_start for t in tickets} == {7.0}

    asyncio.run(main())


def test_submits_of_two_turns_make_two_waves():
    async def main():
        frontier = make_frontier()
        first = park(frontier, range(3))
        await turns(1)
        second = park(frontier, range(3, 5))  # queued behind the first wave's flush
        tickets = await asyncio.gather(*first, *second)
        assert (frontier.waves, frontier.coalesced) == (2, 5)
        assert {t.request.t_start for t in tickets[:3]} == {2.0}
        assert {t.request.t_start for t in tickets[3:]} == {4.0}

    asyncio.run(main())


def test_max_wave_flushes_inside_the_turn_and_the_rest_goes_next_turn():
    async def main():
        frontier = make_frontier(max_wave=4)
        tasks = park(frontier, range(6))
        await turns(1)
        assert (frontier.waves, frontier.coalesced) == (1, 4)
        assert len(frontier) == 2
        await turns(1)
        assert (frontier.waves, frontier.coalesced) == (2, 6)
        tickets = await asyncio.gather(*tasks)
        assert [t.rid for t in tickets] == sorted(t.rid for t in tickets)
        await turns(3)
        assert frontier.waves == 2  # the spare flush handle found nothing to do

    asyncio.run(main())


def test_submit_wave_takes_parked_singles_along_and_leaves_no_empty_wave():
    async def main():
        frontier = make_frontier()
        singles = park(frontier, range(2))
        await turns(1)
        batch = await frontier.submit_wave([(fields(i), float(i)) for i in range(2, 5)])
        assert (frontier.waves, frontier.coalesced) == (1, 5)
        tickets = await asyncio.gather(*singles)
        assert [t.rid for t in tickets + batch] == sorted(t.rid for t in tickets + batch)
        await turns(3)
        assert frontier.waves == 1  # the singles' flush handle was a no-op

    asyncio.run(main())


def test_quiesce_decides_parked_submissions_and_leaves_nothing_scheduled():
    async def main():
        frontier = make_frontier()
        flushes = []
        flush = frontier.flush
        frontier.flush = lambda: (flushes.append(len(frontier)), flush())
        tasks = park(frontier, range(5))
        await turns(1)
        await frontier.quiesce()
        assert all(task.done() and task.result().decided for task in tasks)
        assert (frontier.waves, frontier.coalesced, len(frontier)) == (1, 5, 0)
        # quiesce's own flush took the wave; the handle the first submit
        # scheduled ran (empty) during quiesce's turn and nothing is left.
        assert flushes == [5, 0]
        await turns(3)
        assert flushes == [5, 0]

    asyncio.run(main())


@pytest.mark.parametrize("max_wave", [64, 3], ids=["flush-next-turn", "flush-in-submit"])
def test_a_failing_wave_strands_nobody(max_wave, monkeypatch):
    """Anything but a ``ReproError`` out of the gateway used to leave every
    unresolved future of the wave pending forever."""

    async def main():
        frontier = make_frontier(max_wave=max_wave)

        def broken_drain(now):
            raise RuntimeError("journal disk is gone")

        with monkeypatch.context() as patch:
            patch.setattr(frontier.gateway, "drain", broken_drain)
            tasks = park(frontier, range(3))
            _, pending = await asyncio.wait(tasks, timeout=5.0)
        assert not pending, "wave-mates left parked on a wave nobody will resolve"
        for task in tasks:
            with pytest.raises(RuntimeError, match="journal disk is gone"):
                task.result()
        assert len(frontier) == 0
        # The frontier is still in business: the next wave decides.
        (ticket,) = await asyncio.wait_for(asyncio.gather(*park(frontier, [3])), 5.0)
        assert ticket.decided
        assert frontier.waves == 2

    asyncio.run(main())


def test_wave_size_histogram_is_published_once_per_flush():
    async def main():
        telemetry = Telemetry()
        frontier = make_frontier(telemetry=telemetry)
        await asyncio.gather(*park(frontier, range(3)))
        await asyncio.gather(*park(frontier, [3]))
        text = telemetry.metrics.to_prometheus_text()
        assert 'serve_frontier_wave_size_bucket{le="1"} 1' in text
        assert 'serve_frontier_wave_size_bucket{le="4"} 2' in text
        assert "serve_frontier_wave_size_sum 4" in text
        assert "serve_frontier_wave_size_count 2" in text

    asyncio.run(main())
