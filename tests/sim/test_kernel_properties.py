"""Property tests for the event-kernel scheduling contract.

These pin the invariants every queue backend must honour (and that the
switch models rely on for reproducibility):

- FIFO tie-breaking: events at equal ``(time, priority)`` dispatch in
  schedule order — the property batched admission leans on;
- the simulated clock never runs backwards, during a drain or through
  a ``run(until=...)`` bound, and never becomes NaN;
- ``len()`` tracks live (non-cancelled) events exactly, under lazy
  cancellation, in O(1);
- ``peek_time`` never resurrects a cancelled event.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import CalendarQueue, EventQueue, Simulator

from .test_kernel_equivalence import GridProbe

BACKENDS = ["heap", "calendar"]


def _queue(backend):
    return EventQueue() if backend == "heap" else CalendarQueue()


@pytest.mark.parametrize("backend", BACKENDS)
class TestFifoTieBreaking:
    def test_equal_time_equal_priority_pops_in_push_order(self, backend):
        queue = _queue(backend)
        events = [queue.push(1.0, lambda: None, priority=3) for _ in range(50)]
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event)
        assert popped == events

    def test_priority_beats_sequence_within_a_time(self, backend):
        queue = _queue(backend)
        late_low = queue.push(2.0, lambda: None, priority=0)
        first_high = queue.push(1.0, lambda: None, priority=1)
        second_low = queue.push(1.0, lambda: None, priority=0)
        assert queue.pop() is second_low  # lower priority value first
        assert queue.pop() is first_high
        assert queue.pop() is late_low

    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1,
                          max_size=64))
    def test_equal_keys_keep_schedule_order(self, backend, times):
        queue = _queue(backend)
        for time in times:
            queue.push(time, lambda: None)
        last_key = None
        while (event := queue.pop()) is not None:
            key = (event.time, event.priority, event.sequence)
            if last_key is not None:
                assert key > last_key
            last_key = key


@pytest.mark.parametrize("backend", BACKENDS)
class TestMonotonicClock:
    @settings(max_examples=100, deadline=None)
    @given(
        delays=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_now_never_decreases(self, backend, delays):
        sim = Simulator(queue_backend=backend)
        observed = []

        def record():
            observed.append(sim.now)
            if len(observed) < len(delays) + 5:
                sim.after(0.0, record)  # same-time follow-on

        for delay in delays:
            sim.at(delay, record)
        sim.run(max_events=500)
        assert observed == sorted(observed)

    def test_until_bound_is_inclusive_and_advances_clock(self, backend):
        sim = Simulator(queue_backend=backend)
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(2.0, lambda: fired.append(2.0))
        sim.at(3.0, lambda: fired.append(3.0))
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    @pytest.mark.parametrize("loop", ["fast", "probed", "instrumented"])
    def test_until_before_now_is_rejected(self, backend, loop):
        sim = Simulator(queue_backend=backend)
        fired = []
        sim.at(6.0, lambda: fired.append(6.0))
        sim.at(9.0, lambda: fired.append(9.0))
        sim.run(until=6.0)
        if loop == "probed":
            sim.add_time_probe(GridProbe(1.0))
        max_events = 10 if loop == "instrumented" else None
        with pytest.raises(SimulationError, match="clock back"):
            sim.run(until=2.0, max_events=max_events)
        assert sim.now == 6.0
        assert fired == [6.0]
        sim.run()
        assert fired == [6.0, 9.0]

    def test_until_nan_is_rejected(self, backend):
        sim = Simulator(queue_backend=backend)
        sim.at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=math.nan)
        assert sim.now == 0.0

    def test_until_equal_to_now_is_a_no_op_advance(self, backend):
        sim = Simulator(queue_backend=backend)
        sim.at(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.run(until=1.0) == 0
        assert sim.now == 1.0

    def test_nan_times_are_rejected(self, backend):
        sim = Simulator(queue_backend=backend)
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.after(math.nan, lambda: None)
        assert len(sim.queue) == 0
        sim.run()
        assert sim.now == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestLiveCountUnderLazyCancellation:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_len_tracks_live_events_exactly(self, backend, data):
        queue = _queue(backend)
        events = []
        expected_live = 0
        ops = data.draw(
            st.lists(st.sampled_from(["push", "cancel", "pop"]),
                     min_size=1, max_size=80)
        )
        for step, op in enumerate(ops):
            if op == "push":
                events.append(queue.push(float(step % 7), lambda: None))
                expected_live += 1
            elif op == "cancel" and events:
                index = data.draw(
                    st.integers(0, len(events) - 1), label="cancel_index"
                )
                event = events[index]
                was_live = (
                    not event.cancelled and event._queue is not None
                )
                event.cancel()
                if was_live:
                    expected_live -= 1
            elif op == "pop":
                event = queue.pop()
                if event is not None:
                    expected_live -= 1
                    assert not event.cancelled
            assert len(queue) == expected_live
        # Drain: exactly the live events remain.
        drained = 0
        while queue.pop() is not None:
            drained += 1
        assert drained == expected_live
        assert len(queue) == 0

    def test_cancel_is_idempotent(self, backend):
        queue = _queue(backend)
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self, backend):
        queue = _queue(backend)
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # stale handle; the queue already released it
        assert len(queue) == 1
        assert queue.pop() is not None
        assert len(queue) == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestPeekNeverResurrects:
    def test_peek_skips_cancelled_head(self, backend):
        queue = _queue(backend)
        head = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        head.cancel()
        assert queue.peek_time() == 5.0
        popped = queue.pop()
        assert popped is not None and popped.time == 5.0

    def test_peek_on_fully_cancelled_queue_is_none(self, backend):
        queue = _queue(backend)
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert queue.peek_time() is None
        assert queue.pop() is None
        assert len(queue) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_peek_always_matches_next_pop(self, backend, data):
        queue = _queue(backend)
        events = []
        times = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                     min_size=1, max_size=60)
        )
        for time in times:
            events.append(queue.push(time, lambda: None))
        for index in data.draw(
            st.lists(st.integers(0, len(events) - 1), max_size=30)
        ):
            events[index].cancel()
        while True:
            peeked = queue.peek_time()
            popped = queue.pop()
            if popped is None:
                assert peeked is None
                break
            assert peeked == popped.time
            assert not popped.cancelled
