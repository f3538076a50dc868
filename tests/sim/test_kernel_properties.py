"""Property tests for the event-kernel scheduling contract.

These pin the invariants the event queue must honour (and that the
switch models rely on for reproducibility):

- FIFO tie-breaking: events at equal ``(time, priority)`` dispatch in
  schedule order — the property batched admission leans on;
- the simulated clock never runs backwards, during a drain or through
  a ``run(until=...)`` bound, and never becomes NaN;
- ``len()`` tracks live (non-cancelled) events exactly, under lazy
  cancellation, in O(1); cancel is idempotent and a no-op on a popped
  entry;
- ``peek_time`` never resurrects a cancelled event.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import EventQueue, Simulator

from .test_kernel_equivalence import GridProbe


def _drain(queue):
    """Pop every live entry; return the ``(time, priority, sequence,
    action)`` tuples in pop order."""
    popped = []
    while (item := queue.pop()) is not None:
        popped.append(item)
    return popped


class TestFifoTieBreaking:
    def test_equal_time_equal_priority_pops_in_push_order(self):
        queue = EventQueue()
        actions = [lambda: None for _ in range(50)]
        entries = [queue.push(1.0, action, priority=3) for action in actions]
        popped = _drain(queue)
        assert [item[3] for item in popped] == actions
        assert [item[2] for item in popped] == [e[2] for e in entries]

    def test_priority_beats_sequence_within_a_time(self):
        queue = EventQueue()
        late_low = queue.push(2.0, lambda: None, priority=0)
        first_high = queue.push(1.0, lambda: None, priority=1)
        second_low = queue.push(1.0, lambda: None, priority=0)
        # Lower priority value first; the sequence identifies the entry.
        assert [item[2] for item in _drain(queue)] == [
            second_low[2], first_high[2], late_low[2]
        ]

    @settings(max_examples=100, deadline=None)
    @given(times=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1,
                          max_size=64))
    def test_equal_keys_keep_schedule_order(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        keys = [item[:3] for item in _drain(queue)]
        assert len(keys) == len(times)
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestMonotonicClock:
    @settings(max_examples=100, deadline=None)
    @given(
        delays=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_now_never_decreases(self, delays):
        sim = Simulator()
        observed = []

        def record():
            observed.append(sim.now)
            if len(observed) < len(delays) + 5:
                sim.after(0.0, record)  # same-time follow-on

        for delay in delays:
            sim.at(delay, record)
        sim.run(max_events=500)
        assert observed == sorted(observed)

    def test_until_bound_is_inclusive_and_advances_clock(self):
        sim = Simulator()
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
    def test_until_before_now_is_rejected(self, loop):
        sim = Simulator()
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

    def test_until_nan_is_rejected(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=math.nan)
        assert sim.now == 0.0

    def test_until_equal_to_now_is_a_no_op_advance(self):
        sim = Simulator()
        sim.at(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.run(until=1.0) == 0
        assert sim.now == 1.0

    def test_nan_times_are_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.after(math.nan, lambda: None)
        assert len(sim.queue) == 0
        sim.run()
        assert sim.now == 0.0


class TestLiveCountUnderLazyCancellation:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_len_tracks_live_events_exactly(self, data):
        queue = EventQueue()
        entries = []
        pending = set()  # sequences of pushed, not yet cancelled or popped
        ops = data.draw(
            st.lists(st.sampled_from(["push", "cancel", "pop"]),
                     min_size=1, max_size=80)
        )
        for step, op in enumerate(ops):
            if op == "push":
                entry = queue.push(float(step % 7), lambda: None)
                entries.append(entry)
                pending.add(entry[2])
            elif op == "cancel" and entries:
                index = data.draw(
                    st.integers(0, len(entries) - 1), label="cancel_index"
                )
                entry = entries[index]
                queue.cancel(entry)
                pending.discard(entry[2])
                assert entry[3] is None
            elif op == "pop":
                popped = queue.pop()
                if popped is not None:
                    assert popped[2] in pending
                    assert popped[3] is not None
                    pending.discard(popped[2])
            assert len(queue) == len(pending)
        # Drain: exactly the live entries remain.
        assert {item[2] for item in _drain(queue)} == pending
        assert len(queue) == 0

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        entry = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(entry)
        queue.cancel(entry)
        queue.cancel(entry)
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        entry = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped[2] == entry[2]
        queue.cancel(entry)  # stale handle; the queue already released it
        assert len(queue) == 1
        assert queue.pop() is not None
        assert len(queue) == 0


class TestPeekNeverResurrects:
    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(head)
        assert queue.peek_time() == 5.0
        popped = queue.pop()
        assert popped is not None and popped[0] == 5.0

    def test_peek_on_fully_cancelled_queue_is_none(self):
        queue = EventQueue()
        entries = [queue.push(float(i), lambda: None) for i in range(10)]
        for entry in entries:
            queue.cancel(entry)
        assert queue.peek_time() is None
        assert queue.pop() is None
        assert len(queue) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_peek_always_matches_next_pop(self, data):
        queue = EventQueue()
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
            queue.cancel(events[index])
        cancelled = {entry[2] for entry in events if entry[3] is None}
        while True:
            peeked = queue.peek_time()
            popped = queue.pop()
            if popped is None:
                assert peeked is None
                break
            assert peeked == popped[0]
            assert popped[2] not in cancelled
