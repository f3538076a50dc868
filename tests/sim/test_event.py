"""Tests for the discrete-event kernel (repro.sim.event)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue, Simulator


class TestEventQueue:
    def test_pop_returns_earliest(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        first = q.pop()
        assert first is not None and first[0] == 1.0
        first[3]()
        assert order == ["a"]

    def test_fifo_tiebreak_at_equal_time(self):
        q = EventQueue()
        q.push(1.0, lambda: "first")
        q.push(1.0, lambda: "second")
        a = q.pop()
        b = q.pop()
        assert a is not None and b is not None
        assert a[2] < b[2]
        assert (a[3](), b[3]()) == ("first", "second")

    def test_priority_orders_within_time(self):
        q = EventQueue()
        q.push(1.0, lambda: None, priority=5)
        high = q.push(1.0, lambda: None, priority=1)
        assert q.pop()[:3] == tuple(high[:3])

    def test_entry_is_the_handle(self):
        q = EventQueue()

        def action() -> None:
            pass

        entry = q.push(1.5, action, priority=2)
        assert entry == [1.5, 2, 0, action]
        assert q.pop() == (1.5, 2, 0, action)
        assert entry[3] is None  # spent: the queue no longer holds it

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(event)
        popped = q.pop()
        assert popped is not None and popped[0] == 2.0

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(event)
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        q.cancel(event)
        assert q.peek_time() == 3.0

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None
        assert EventQueue().pop() is None


class TestSimulator:
    def test_runs_events_in_time_order(self):
        sim = Simulator()
        order: list[str] = []
        sim.at(2.0, lambda: order.append("late"))
        sim.at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_after_is_relative(self):
        sim = Simulator()
        times: list[float] = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_until_bound_leaves_later_events_queued(self):
        sim = Simulator()
        fired: list[float] = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(5.0, lambda: fired.append(5.0))
        sim.run(until=2.0)
        assert fired == [1.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 5.0]

    def test_until_inclusive(self):
        sim = Simulator()
        fired: list[float] = []
        sim.at(2.0, lambda: fired.append(2.0))
        sim.run(until=2.0)
        assert fired == [2.0]

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.at(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.run() == 7

    def test_events_scheduled_during_run_are_dispatched(self):
        sim = Simulator()
        seen: list[str] = []

        def outer() -> None:
            seen.append("outer")
            sim.after(1.0, lambda: seen.append("inner"))

        sim.at(0.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]

    def test_step_dispatches_one(self):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_cancel_through_the_simulator_queue(self):
        sim = Simulator()
        fired: list[str] = []
        handle = sim.at(1.0, lambda: fired.append("cancelled"))
        sim.after(2.0, lambda: fired.append("kept"))
        sim.queue.cancel(handle)
        assert len(sim.queue) == 1
        sim.run()
        assert fired == ["kept"]

    def test_dispatched_handle_cannot_be_cancelled(self):
        sim = Simulator()
        handles = []
        handles.append(sim.at(1.0, lambda: sim.queue.cancel(handles[0])))
        sim.at(2.0, lambda: None)
        assert sim.run(until=1.0) == 1
        assert len(sim.queue) == 1
        assert sim.run() == 1

    def test_events_dispatched_counter(self):
        sim = Simulator()
        sim.at(0.0, lambda: None)
        sim.at(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 2
