"""Discrete-event simulation core.

The kernel is deliberately small: a ``heapq`` min-heap of timestamped
events with deterministic FIFO tie-breaking, plus a :class:`Simulator`
facade that owns the clock, dispatches events, and enforces time
monotonicity.

Time is a float in **seconds**.  Cycle-level models convert cycles to
seconds through :class:`repro.sim.clock.Clock`, which lets components in
different clock domains (e.g. a pipeline at 0.6 GHz and a MAT memory at
9.6 GHz) share one event queue.

Every scheduled event is one plain list, its *entry*::

    [time, priority, sequence, action]

The heap orders entries by ``(time, priority, sequence)``; ``sequence``
is unique, so the comparison never reaches ``action`` and the order is
strict.  The entry is also the event's handle: :meth:`Simulator.at`,
:meth:`Simulator.after` and :meth:`EventQueue.push` return it and
:meth:`EventQueue.cancel` takes it.  Cancelling or dispatching an entry
clears its action slot to ``None`` — see docs/KERNEL.md ("Event queue").

:class:`CollectorPause` is the one place the cyclic garbage collector is
paused.  :meth:`Simulator.run` enters it for the drain, and the run
entries (``BaseSwitch.run``, ``run_fabric``, ``run_serve``) enter it
before they build and admit their arrivals, so a whole run, from the
first packet built to the last event dispatched, sits in one pause —
see docs/KERNEL.md ("Collector policy").
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

from ..errors import SimulationError

Action = Callable[[], Any]

#: An event entry, ``[time, priority, sequence, action]``; ``action`` is
#: None once the entry was cancelled or dispatched.
Entry = list

_INF = float("inf")


class CollectorPause:
    """Scope that pauses automatic cyclic garbage collection.

    ``with CollectorPause():`` disables the collector on entry and
    restores the state it found on every exit path, a raise included.
    A nested entry (or a caller that had disabled the collector itself)
    finds it off and leaves it off, so only the outermost scope turns it
    back on; the collector then resumes on its normal schedule.  Sound
    only because a run creates no reference cycles (docs/KERNEL.md,
    "Collector policy"; audited by ``tests/sim/test_collector.py``).
    """

    __slots__ = ("_restore",)

    def __enter__(self) -> None:
        self._restore = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._restore:
            gc.enable()


class EventQueue:
    """A min-heap of event entries with lazy cancellation.

    :meth:`cancel` only clears the entry's action slot; the entry stays
    in the heap until it reaches the head, where :meth:`pop`,
    :meth:`peek_time` and the dispatch loops discard it.  ``len`` is the
    live count in O(1): the heap size minus the cancelled entries still
    in it, so pushing and popping a live entry touch no counter.
    """

    __slots__ = ("_heap", "_cancelled", "_next_sequence")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._cancelled = 0
        self._next_sequence = count().__next__

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def push(self, time: float, action: Action, priority: int = 0) -> Entry:
        """Schedule ``action`` at ``time`` and return its entry."""
        entry = [time, priority, self._next_sequence(), action]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Entry) -> None:
        """Cancel a pending entry; a no-op once cancelled or popped."""
        if entry[3] is not None:
            entry[3] = None
            self._cancelled += 1

    def pop(self) -> tuple[float, int, int, Action] | None:
        """Remove the earliest live entry, or return None if none is left.

        Returns ``(time, priority, sequence, action)`` and clears the
        entry's action slot, so cancelling the spent handle is a no-op.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            action = entry[3]
            if action is None:
                self._cancelled -= 1
                continue
            entry[3] = None
            return entry[0], entry[1], entry[2], action
        return None

    def peek_time(self) -> float | None:
        """Return the earliest live entry's time without popping it."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is not None:
                return head[0]
            heappop(heap)
            self._cancelled -= 1
        return None


class Simulator:
    """Owns simulated time and dispatches events in order.

    Components schedule work with :meth:`at` (absolute time) or :meth:`after`
    (relative delay).  :meth:`run` drains the queue, optionally bounded by
    ``until`` (a time) or ``max_events`` (a safety valve for models that
    generate events forever).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        # The schedulers and the fast loop work on the heap directly: one
        # list per event and no method call per push or pop.
        self._heap = self.queue._heap
        self._next_sequence = self.queue._next_sequence
        self.now = 0.0
        self.events_dispatched = 0
        self.events_coalesced = 0
        """Per-packet transactions folded into burst events by batched
        admission.  ``events_dispatched + events_coalesced`` is the
        logical event count — what ``events_dispatched`` would read if
        every same-timestamp burst were scheduled packet-by-packet —
        and is the unit throughput benchmarks report as events/s."""
        self.time_probe: Callable[[float], None] | None = None
        """Optional callback fired whenever simulated time is about to
        advance, with the new time.  Used by telemetry's periodic metric
        sampler and the resource monitor: because probes never schedule
        events, observing a run cannot change its event order or final
        duration."""
        self._time_probes: list[Callable[[float], None]] = []
        self._probe_chain: Callable[[float], None] | None = None

    @property
    def logical_events(self) -> int:
        """Dispatched plus coalesced events: the batching-independent
        work count.  A run agrees on this number whether its arrivals
        were admitted in bursts (``BaseSwitch.run``) or one
        ``BaseSwitch.inject`` per packet, so events/s compares runs that
        batch differently."""
        return self.events_dispatched + self.events_coalesced

    def add_time_probe(self, probe: Callable[[float], None]) -> None:
        """Install ``probe`` on the clock, chaining after any existing one.

        The dispatch loop keeps its single ``time_probe is None`` check —
        attaching several observers (a resource monitor per switch on
        a shared fabric kernel) costs the fast path nothing.  Probes fire
        in installation order with the same new-time argument.

        Probes registered here are also tracked individually so the
        dispatcher can consult their ``next_deadline_s()`` (when every
        probe offers one) and keep dispatching on the fast path between
        deadlines — see :meth:`_probe_deadline`.
        """
        current = self.time_probe
        if current is None:
            self.time_probe = probe
            self._time_probes = [probe]
            self._probe_chain = probe
            return
        if current is not self._probe_chain:
            # A probe was installed by direct assignment, bypassing this
            # method.  Keep chaining it, but record it as an opaque
            # member: it carries no deadline contract, so the probed
            # fast path stands down (``_probe_deadline`` returns None).
            self._time_probes = [current]

        def chained(new_time_s: float, _first=current, _second=probe) -> None:
            _first(new_time_s)
            _second(new_time_s)

        self._time_probes.append(probe)
        self.time_probe = chained
        self._probe_chain = chained

    def _probe_deadline(self) -> float | None:
        """Earliest ``next_deadline_s()`` across registered time probes.

        Returns None when any probe lacks the deadline protocol (or when
        ``time_probe`` was assigned directly, hiding its members), which
        sends :meth:`run` to the instrumented reference loop.

        The protocol (docs/KERNEL.md): a probe exposing
        ``next_deadline_s() -> float`` promises that calls with
        ``new_time < deadline`` are no-ops, and that after a call with
        ``new_time >= deadline`` the reported deadline strictly exceeds
        that ``new_time``.  Grid samplers (ResourceMonitor,
        RollingWindowMonitor) satisfy this naturally.
        """
        if self.time_probe is not self._probe_chain or not self._time_probes:
            return None
        deadline = _INF
        for probe in self._time_probes:
            next_deadline = getattr(probe, "next_deadline_s", None)
            if next_deadline is None:
                return None
            deadline_s = next_deadline()
            if deadline_s < deadline:
                deadline = deadline_s
        return deadline

    def at(self, time: float, action: Action, priority: int = 0) -> Entry:
        """Schedule ``action`` at absolute time ``time`` (seconds)."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        entry = [time, priority, self._next_sequence(), action]
        heappush(self._heap, entry)
        return entry

    def after(self, delay: float, action: Action, priority: int = 0) -> Entry:
        """Schedule ``action`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay}")
        entry = [self.now + delay, priority, self._next_sequence(), action]
        heappush(self._heap, entry)
        return entry

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events until the queue drains or a bound is hit.

        Returns the number of events dispatched by this call.  When
        ``until`` is given, events at exactly ``until`` still fire; later
        ones stay queued and ``now`` advances to ``until``.

        Dispatch takes one of two loops with identical semantics: the
        fast one (no ``max_events``, and every time probe publishing a
        ``next_deadline_s()``) does no per-event feature branching and
        fires probes only at their deadlines; the reference loop honours
        everything — see docs/KERNEL.md for the fast-path discipline.

        The drain runs inside a :class:`CollectorPause`: event actions
        create no reference cycles, so the collector would only
        re-traverse the live packet heap.  Inside a run entry's pause
        (``BaseSwitch.run``, ``run_fabric``, ``run_serve``) this nested
        scope leaves the collector alone — see "Collector policy" in
        docs/KERNEL.md.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until}) would move the clock back from {self.now}"
            )
        with CollectorPause():
            if max_events is None:
                if self.time_probe is None:
                    return self._run_fast(until, _INF)
                deadline = self._probe_deadline()
                if deadline is not None:
                    return self._run_fast(until, deadline)
            return self._run_instrumented(until, max_events)

    def _run_fast(self, until: float | None, deadline: float) -> int:
        """Fast dispatch with deadline-aware time probes.

        Events strictly before ``deadline`` — the earliest probe
        deadline, or ``inf`` without probes — dispatch with one pop and
        no probe call; the probe chain only fires when an advance
        reaches a deadline, which are exactly the calls the instrumented
        loop would make that are not no-ops under the probe contract
        (see :meth:`_probe_deadline`).  Probes must all be registered
        before ``run``; installing one from inside an event action is
        not supported on this path.
        """
        heap = self._heap
        probe = self.time_probe
        bound = _INF if until is None else until
        dispatched = 0
        now = self.now
        while heap:
            entry = heap[0]
            time = entry[0]
            if time > bound:
                break
            heappop(heap)
            action = entry[3]
            if action is None:  # cancelled: drop the tombstone
                self.queue._cancelled -= 1
                continue
            entry[3] = None
            if time > now:
                if time >= deadline and probe is not None:
                    probe(time)
                    deadline = self._next_deadline(time)
                now = self.now = time
            elif time < now:
                raise SimulationError(
                    f"event time {time} precedes current time {now}"
                )
            action()
            dispatched += 1
        if until is not None and self.queue.peek_time() is not None:
            # Later events stay queued; the clock still advances to the
            # bound, matching the instrumented loop.
            if probe is not None and until > now:
                probe(until)
            self.now = until
        self.events_dispatched += dispatched
        return dispatched

    def _next_deadline(self, probed_time: float) -> float:
        """Re-read the probe horizon after the chain fired at a deadline."""
        refreshed = self._probe_deadline()
        deadline = _INF if refreshed is None else refreshed
        if deadline <= probed_time:
            raise SimulationError(
                "time probe violated the deadline contract: "
                f"next_deadline_s() {deadline} did not advance "
                f"past probed time {probed_time}"
            )
        return deadline

    def _run_instrumented(
        self,
        until: float | None,
        max_events: int | None,
    ) -> int:
        """Reference dispatch loop: every probe call and ``max_events``."""
        queue = self.queue
        dispatched = 0
        while True:
            if max_events is not None and dispatched >= max_events:
                break
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                if self.time_probe is not None and until > self.now:
                    self.time_probe(until)
                self.now = until
                break
            time, _, _, action = queue.pop()
            if time < self.now:
                raise SimulationError(
                    f"event time {time} precedes current time {self.now}"
                )
            if self.time_probe is not None and time > self.now:
                self.time_probe(time)
            self.now = time
            action()
            dispatched += 1
        self.events_dispatched += dispatched
        return dispatched

    def step(self) -> bool:
        """Dispatch exactly one event; return False if the queue was empty."""
        return self.run(max_events=1) == 1
