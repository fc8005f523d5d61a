"""The batching frontier, counted in event-loop turns.

A wave is whatever arrived in one turn of the loop: the first submit
schedules the flush with ``call_soon`` and every handler that was
runnable in the same turn parks before it runs.  Nothing here sleeps on
a wall clock — each ``await asyncio.sleep(0)`` is exactly one turn — so
the tests pin *when* a wave closes, not how long it took.
"""

import asyncio

import pytest

from repro.core.errors import InvalidRequestError
from repro.core.platform import Platform
from repro.gateway import Gateway, Journal
from repro.obs.telemetry import NullTelemetry, Telemetry
from repro.serve.clock import LogicalClock
from repro.serve.frontier import AdmissionFrontier

from .conftest import checked


class CountingClock(LogicalClock):
    """A logical clock that counts how often a wave asked it the time."""

    reads = 0

    def now(self) -> float:
        self.reads += 1
        return super().now()


PLATFORM = Platform.uniform(4, 4, 100.0)


def make_frontier(*, telemetry=None, **kwargs) -> AdmissionFrontier:
    gateway = Gateway(
        PLATFORM,
        num_shards=2,
        batch_size=4,
        telemetry=telemetry if telemetry is not None else NullTelemetry(),
    )
    return AdmissionFrontier(gateway, CountingClock(), **kwargs)


def fields(i: int, deadline: float = 200.0, at: float = 0.0) -> tuple:
    """Submission ``i`` as the serve edge parks it, checked at ``at``."""
    return checked(
        PLATFORM, at, ingress=i % 4, egress=(i + 1) % 4, volume=10.0, deadline=deadline,
        client="anonymous",
    )  # fmt: skip


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
        rids = [*(t.rid for t in tickets), *batch]  # a wave is answered with rids
        assert rids == sorted(rids)
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


def test_one_future_per_single_caller_none_for_a_wave_and_a_stale_entry_fails_alone(
    monkeypatch,
):
    """A single submission parks on one future; a ``submit_wave`` call,
    decided before it returns, on none (it took one per entry plus a
    gather).  An entry whose window closed by the time its wave flushed
    fails its own slot, and its wave-mates decide."""

    async def main():
        loop = asyncio.get_running_loop()
        created = []
        create_future = loop.create_future
        monkeypatch.setattr(
            loop, "create_future", lambda: created.append(1) or create_future()
        )
        frontier = make_frontier(max_wave=4)
        singles = park(frontier, range(2))
        await turns(1)
        assert len(created) == 2
        # max_wave=4: entries 0-1 go with the singles, the rest flush at 7.0
        stale = fields(9, deadline=5.0, at=4.0)  # fine at its ``at``, dead at 7.0
        entries = [*((fields(i), float(i)) for i in (2, 3)), (stale, 4.0), (fields(7), 7.0)]
        results = await frontier.submit_wave(entries)
        assert len(created) == 2
        assert isinstance(results[2], InvalidRequestError)
        rids = [*results[:2], results[3]]
        assert all(frontier.gateway.get(rid).decided for rid in rids)
        # max_wave cut the call across two waves; both answered it.
        assert (frontier.waves, frontier.coalesced) == (2, 6)
        assert all(t.decided for t in await asyncio.gather(*singles))
        assert await frontier.submit_wave([]) == []

    asyncio.run(main())


def test_a_wave_is_journaled_in_one_write_before_it_is_answered(tmp_path, monkeypatch):
    async def main():
        gateway = Gateway(
            Platform.uniform(4, 4, 100.0),
            num_shards=2,
            batch_size=4,
            journal=Journal(path=tmp_path / "wal.jsonl"),
            telemetry=NullTelemetry(),
        )
        frontier = AdmissionFrontier(gateway, LogicalClock())
        writes = []
        emit = Journal._emit

        def counted(journal, lines):
            writes.append(len(lines))
            emit(journal, lines)

        monkeypatch.setattr(Journal, "_emit", counted)
        tasks = park(frontier, range(6))
        await turns(2)  # the flush ran; its callers are not resumed yet
        assert writes == [7] and not any(task.done() for task in tasks)  # 6 submits, 1 drain
        await asyncio.gather(*tasks)
        assert len(Journal.load(tmp_path / "wal.jsonl")) == 7
        gateway.journal.close()

    asyncio.run(main())
