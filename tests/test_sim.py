"""Tests for the discrete-event simulation engine."""


import pytest

from repro.obs import Telemetry, use_telemetry
from repro.sim import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        seen = []
        q.push(5.0, lambda e: seen.append(5))
        q.push(1.0, lambda e: seen.append(1))
        q.push(3.0, lambda e: seen.append(3))
        while (e := q.pop()) is not None:
            e.callback(e)
        assert seen == [1, 3, 5]

    def test_same_time_fifo(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(1.0, lambda e, i=i: order.append(i))
        while (e := q.pop()) is not None:
            e.callback(e)
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda e: order.append("low"), priority=1)
        q.push(1.0, lambda e: order.append("high"), priority=0)
        while (e := q.pop()) is not None:
            e.callback(e)
        assert order == ["high", "low"]

    def test_cancel(self):
        q = EventQueue()
        ev = q.push(1.0, lambda e: pytest.fail("cancelled event ran"))
        ev.cancel()
        assert q.pop() is None
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda e: None)
        q.push(2.0, lambda e: None)
        ev.cancel()
        assert q.peek_time() == 2.0

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, lambda e: None)
        assert q


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.at(2.0, lambda e: times.append(sim.now))
        sim.at(7.0, lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.0, 7.0]
        assert sim.now == 7.0
        assert sim.steps == 2

    def test_after(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.after(5.0, lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [15.0]

    def test_no_scheduling_in_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.at(5.0, lambda e: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda e: None)

    def test_events_can_spawn_events(self):
        sim = Simulator()
        fired = []

        def chain(event):
            fired.append(sim.now)
            if len(fired) < 4:
                sim.after(1.0, chain)

        sim.at(0.0, chain)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops(self):
        sim = Simulator()
        fired = []
        for t in [1.0, 2.0, 3.0, 4.0]:
            sim.at(t, lambda e: fired.append(sim.now))
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, lambda e: fired.append(sim.now))
        sim.run(until=2.0)
        assert fired == [2.0]

    def test_max_steps(self):
        sim = Simulator()
        for t in range(10):
            sim.at(float(t), lambda e: None)
        sim.run(max_steps=3)
        assert sim.steps == 3

    def test_empty_run_advances_to_until(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_payloads_delivered(self):
        sim = Simulator()
        got = []
        sim.at(1.0, lambda e: got.append(e.payload), payload={"x": 1})
        sim.run()
        assert got == [{"x": 1}]


class TestEngineTelemetry:
    def test_run_emits_counters_and_span(self):
        tel = Telemetry()
        with use_telemetry(tel):
            sim = Simulator()

            def handler(event):
                pass

            sim.at(1.0, handler)
            sim.at(2.0, handler)
            sim.run()
        counter = tel.metrics.counter("sim_events_total")
        assert counter.value(label="handler") == 2.0
        (run_span,) = tel.tracer.spans(name="sim.run")
        assert run_span.end == 2.0
        assert run_span.args["steps"] == 2
        assert len(tel.tracer.spans(name="sim.handler")) == 2

    def test_disabled_telemetry_records_nothing(self):
        sim = Simulator()
        sim.at(1.0, lambda e: None)
        sim.run()
        # The default handle is the no-op null telemetry; nothing to assert
        # beyond "this ran without touching a real registry".
        from repro.obs import get_telemetry

        assert get_telemetry().is_empty()
