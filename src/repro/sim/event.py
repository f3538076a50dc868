"""Discrete-event simulation core.

The kernel is deliberately small: a priority queue of timestamped events
with deterministic FIFO tie-breaking, plus a :class:`Simulator` facade that
owns the clock, dispatches events, and enforces time monotonicity.

Time is a float in **seconds**.  Cycle-level models convert cycles to
seconds through :class:`repro.sim.clock.Clock`, which lets components in
different clock domains (e.g. a pipeline at 0.6 GHz and a MAT memory at
9.6 GHz) share one event queue.

Two queue backends implement the same total order ``(time, priority,
sequence)`` — see docs/KERNEL.md for the backend contract:

``heap``
    A binary min-heap of packed ``(time, priority, sequence, event)``
    tuples (:class:`EventQueue`).  O(log n) everywhere, no tuning knobs,
    and the reference implementation every other backend must match
    pop-for-pop.

``calendar``
    A calendar queue (:class:`CalendarQueue`): an array of time buckets
    covering one "year" of simulated time plus an overflow heap for
    events beyond the year.  Amortised O(1) push/pop when the schedule
    horizon is dense.  It bootstraps in heap mode and migrates to
    buckets once it has seen enough events to size the buckets from the
    observed schedule horizon.

``auto``
    A :class:`CalendarQueue` that only migrates to buckets when the live
    event population crosses :data:`AUTO_CALENDAR_THRESHOLD`; below that
    the C-accelerated heap wins and the queue simply stays in heap mode.

Because every backend agrees on the same strict total order (``sequence``
is unique), the dispatch sequence — and therefore every trace, ledger and
result — is bit-for-bit identical across backends.
"""

from __future__ import annotations

import gc
import os
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

Action = Callable[[], Any]

#: Pushes a CalendarQueue observes before sizing buckets from the
#: schedule horizon (min/max pending time) seen so far.
CALENDAR_BOOTSTRAP_PUSHES = 64

#: Number of buckets in one calendar "year".
CALENDAR_BUCKETS = 256

#: Live-event population at which the ``auto`` backend migrates from
#: heap mode to calendar buckets.  Below this the stdlib heap (C code)
#: is faster than Python-level bucket bookkeeping.
AUTO_CALENDAR_THRESHOLD = 4096

#: Environment variable consulted when ``Simulator(queue_backend=None)``;
#: lets CI pin the fallback backend without touching call sites.
QUEUE_BACKEND_ENV = "REPRO_QUEUE_BACKEND"

QUEUE_BACKENDS = ("auto", "heap", "calendar")


class Event:
    """A scheduled callback.

    Events order by ``(time, priority, sequence)``.  ``sequence`` is a
    monotonically increasing tie-breaker so two events at the same time and
    priority always fire in the order they were scheduled, which keeps runs
    bit-for-bit reproducible.  Queue internals store packed
    ``(time, priority, sequence, event)`` tuples so the comparisons heapq
    performs never enter Python-level rich comparison on ``Event``.
    """

    __slots__ = ("time", "priority", "sequence", "action", "cancelled",
                 "_queue")

    def __init__(self, time: float, priority: int, sequence: int,
                 action: Action, queue: "EventQueue | None" = None) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self._queue = queue

    def __lt__(self, other: "Event") -> bool:
        return ((self.time, self.priority, self.sequence)
                < (other.time, other.priority, other.sequence))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"sequence={self.sequence!r}{state})")

    def cancel(self) -> None:
        """Mark the event so the queue skips it when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                self._queue = None


class EventQueue:
    """A min-heap of events with lazy cancellation (``heap`` backend).

    ``__len__`` is O(1): a live-event counter is maintained on push and
    decremented by :meth:`Event.cancel` / :meth:`pop`, so fabric-scale
    queues don't pay a linear scan in TM credit checks.
    """

    backend = "heap"

    __slots__ = ("_heap", "_live", "_next_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._live = 0
        self._next_sequence = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, action: Action, priority: int = 0) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, priority, sequence, action, self)
        heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if not event.cancelled:
                self._live -= 1
                event._queue = None
                return event
        return None

    def pop_due(self, until: float) -> Event | None:
        """Pop the earliest live event iff its time is <= ``until``.

        Leaves the head untouched (and returns None) when it is beyond
        ``until``; the uninstrumented dispatch loop uses this to combine
        peek and pop into one call per event.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heappop(heap)
                continue
            if head[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def peek_time(self) -> float | None:
        """Return the timestamp of the earliest live event without popping."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[3].cancelled:
                return head[0]
            heappop(heap)
        return None


class CalendarQueue:
    """Calendar-queue backend: bucketed by time with an overflow heap.

    Implements the exact :class:`EventQueue` contract.  The queue starts
    in *heap mode* and watches the schedule horizon (min/max pending
    timestamp).  After :data:`CALENDAR_BOOTSTRAP_PUSHES` pushes — or, for
    the ``auto`` backend, once the live population also crosses
    ``migrate_at`` — it sizes :data:`CALENDAR_BUCKETS` buckets over the
    observed horizon and migrates.  Each bucket is itself a small heap of
    packed tuples, so within-bucket order is the same strict
    ``(time, priority, sequence)`` total order as the heap backend; the
    bucket cursor only ever consumes the bucket containing the global
    minimum, so pops come out in exactly the heap backend's order.

    Events beyond the current calendar year land in an overflow heap;
    when a year drains, the calendar re-bases on the earliest overflow
    event, so sparse stretches are skipped in O(overflow) rather than
    scanning empty buckets.
    """

    backend = "calendar"

    __slots__ = ("_heap", "_live", "_next_sequence", "_buckets", "_width",
                 "_base", "_cursor", "_year_end", "_overflow", "_in_year",
                 "_pushes", "_min_seen", "_max_seen", "_migrate_at")

    def __init__(self, migrate_at: int = 0) -> None:
        self._heap: list[tuple[float, int, int, Event]] | None = []
        self._live = 0
        self._next_sequence = 0
        self._pushes = 0
        self._min_seen = float("inf")
        self._max_seen = float("-inf")
        self._migrate_at = migrate_at
        # Bucket state (unused until migration).
        self._buckets: list[list[tuple[float, int, int, Event]]] = []
        self._width = 0.0
        self._base = 0.0
        self._cursor = 0
        self._year_end = 0.0
        self._in_year = 0
        self._overflow: list[tuple[float, int, int, Event]] = []

    def __len__(self) -> int:
        return self._live

    # -- heap-mode bootstrap ------------------------------------------------

    def _maybe_migrate(self) -> None:
        heap = self._heap
        assert heap is not None
        if self._pushes < CALENDAR_BOOTSTRAP_PUSHES:
            return
        if self._live < self._migrate_at:
            return
        horizon = self._max_seen - self._min_seen
        if horizon <= 0.0:
            # Degenerate schedule (all events at one instant): buckets
            # cannot discriminate, so stay in heap mode a while longer.
            self._pushes = 0
            return
        self._width = horizon / CALENDAR_BUCKETS
        base = min((entry[0] for entry in heap), default=self._min_seen)
        self._base = base
        self._cursor = 0
        self._year_end = base + self._width * CALENDAR_BUCKETS
        self._buckets = [[] for _ in range(CALENDAR_BUCKETS)]
        self._in_year = 0
        self._overflow = []
        entries = heap
        self._heap = None  # bucket mode from here on
        for entry in entries:
            if not entry[3].cancelled:
                self._place(entry)

    def _place(self, entry: tuple[float, int, int, Event]) -> None:
        """File one live entry into its bucket or the overflow heap."""
        time = entry[0]
        if time >= self._year_end:
            heappush(self._overflow, entry)
            return
        index = int((time - self._base) / self._width)
        if index < self._cursor:
            # A push at the current instant can land numerically behind
            # the cursor; clamping keeps it poppable.  Within-bucket heap
            # order still yields the global (time, priority, sequence)
            # minimum because every earlier bucket is empty.
            index = self._cursor
        elif index >= CALENDAR_BUCKETS:
            index = CALENDAR_BUCKETS - 1
        heappush(self._buckets[index], entry)
        self._in_year += 1

    def _advance_year(self) -> bool:
        """Re-base the calendar on the earliest overflow event.

        Returns False when nothing is pending anywhere.
        """
        overflow = self._overflow
        while overflow and overflow[0][3].cancelled:
            heappop(overflow)
        if not overflow:
            return False
        self._base = overflow[0][0]
        self._cursor = 0
        self._year_end = self._base + self._width * CALENDAR_BUCKETS
        self._in_year = 0
        keep: list[tuple[float, int, int, Event]] = []
        for entry in overflow:
            if entry[3].cancelled:
                continue
            if entry[0] < self._year_end:
                self._place(entry)
            else:
                keep.append(entry)
        keep.sort()
        self._overflow = keep
        return True

    def _head_bucket(self) -> list[tuple[float, int, int, Event]] | None:
        """Advance the cursor to the bucket holding the earliest live
        event, discarding cancelled entries, and return that bucket."""
        while True:
            while self._cursor < CALENDAR_BUCKETS:
                bucket = self._buckets[self._cursor]
                while bucket:
                    if bucket[0][3].cancelled:
                        heappop(bucket)
                        self._in_year -= 1
                        continue
                    return bucket
                self._cursor += 1
            if not self._advance_year():
                return None

    # -- EventQueue contract ------------------------------------------------

    def push(self, time: float, action: Action, priority: int = 0) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, priority, sequence, action, self)
        entry = (time, priority, sequence, event)
        self._live += 1
        heap = self._heap
        if heap is not None:
            heappush(heap, entry)
            self._pushes += 1
            if time < self._min_seen:
                self._min_seen = time
            if time > self._max_seen:
                self._max_seen = time
            self._maybe_migrate()
        else:
            self._place(entry)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        if heap is not None:
            while heap:
                event = heappop(heap)[3]
                if not event.cancelled:
                    self._live -= 1
                    event._queue = None
                    return event
            return None
        bucket = self._head_bucket()
        if bucket is None:
            return None
        event = heappop(bucket)[3]
        self._in_year -= 1
        self._live -= 1
        event._queue = None
        return event

    def pop_due(self, until: float) -> Event | None:
        """Pop the earliest live event iff its time is <= ``until``."""
        heap = self._heap
        if heap is not None:
            while heap:
                head = heap[0]
                event = head[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                if head[0] > until:
                    return None
                heappop(heap)
                self._live -= 1
                event._queue = None
                return event
            return None
        bucket = self._head_bucket()
        if bucket is None or bucket[0][0] > until:
            return None
        event = heappop(bucket)[3]
        self._in_year -= 1
        self._live -= 1
        event._queue = None
        return event

    def peek_time(self) -> float | None:
        """Return the timestamp of the earliest live event without popping."""
        heap = self._heap
        if heap is not None:
            while heap:
                head = heap[0]
                if not head[3].cancelled:
                    return head[0]
                heappop(heap)
            return None
        bucket = self._head_bucket()
        if bucket is None:
            return None
        return bucket[0][0]


def make_event_queue(backend: str) -> EventQueue | CalendarQueue:
    """Instantiate a queue backend by name (``auto``/``heap``/``calendar``).

    ``auto`` is a calendar queue that only leaves heap mode once the live
    population crosses :data:`AUTO_CALENDAR_THRESHOLD` — schedule-horizon
    statistics (bucket width from observed min/max pending time) are
    gathered either way, so migration is cheap when it happens.
    """
    if backend == "heap":
        return EventQueue()
    if backend == "calendar":
        return CalendarQueue(migrate_at=0)
    if backend == "auto":
        return CalendarQueue(migrate_at=AUTO_CALENDAR_THRESHOLD)
    raise SimulationError(
        f"unknown queue backend {backend!r} "
        f"(expected one of {', '.join(QUEUE_BACKENDS)})"
    )


def _resolve_backend(requested: str | None) -> str:
    if requested is not None:
        return requested
    return os.environ.get(QUEUE_BACKEND_ENV, "auto")


class Simulator:
    """Owns simulated time and dispatches events in order.

    Components schedule work with :meth:`at` (absolute time) or :meth:`after`
    (relative delay).  :meth:`run` drains the queue, optionally bounded by
    ``until`` (a time) or ``max_events`` (a safety valve for models that
    generate events forever).

    ``queue_backend`` selects the event-queue implementation ("auto",
    "heap" or "calendar"); when omitted, the ``REPRO_QUEUE_BACKEND``
    environment variable is consulted, defaulting to "auto".  All
    backends dispatch in the identical (time, priority, sequence) order,
    so the choice never affects results — only wall-clock speed.
    """

    def __init__(self, queue_backend: str | None = None) -> None:
        backend = _resolve_backend(queue_backend)
        self.queue = make_event_queue(backend)
        self.queue_backend = backend
        self.now = 0.0
        self.events_dispatched = 0
        self.events_coalesced = 0
        """Per-packet transactions folded into burst events by batched
        admission.  ``events_dispatched + events_coalesced`` is the
        logical event count — what ``events_dispatched`` would read if
        every same-timestamp burst were scheduled packet-by-packet —
        and is the unit throughput benchmarks report as events/s."""
        self.trace = None
        """Optional :class:`~repro.telemetry.recorder.TraceRecorder`.

        When set, each dispatched event is recorded under the verbose
        ``SIM`` category (opt-in; filtered out by default recorders).
        """
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
        """Dispatched plus coalesced events: the backend- and
        batching-independent work count.  Two runs of one workload agree
        on this number whether admission was batched (``counters``/
        ``sampled`` telemetry, ``trace is None``) or per-packet
        (``full``), which is what makes telemetry-level overhead
        comparisons in events/s meaningful."""
        return self.events_dispatched + self.events_coalesced

    def add_time_probe(self, probe: Callable[[float], None]) -> None:
        """Install ``probe`` on the clock, chaining after any existing one.

        The dispatch loop keeps its single ``time_probe is None`` check —
        attaching several observers (metric snapshots plus a resource
        monitor) costs the uninstrumented fast path nothing.  Probes fire
        in installation order with the same new-time argument.

        Probes registered here are also tracked individually so the
        dispatcher can consult their ``next_deadline_s()`` (when every
        probe offers one) and keep dispatching on the uninstrumented
        fast path between deadlines — see :meth:`_probe_deadline`.
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
        PeriodicSampler, RollingWindowMonitor) satisfy this naturally.
        """
        if self.time_probe is not self._probe_chain or not self._time_probes:
            return None
        deadline = float("inf")
        for probe in self._time_probes:
            next_deadline = getattr(probe, "next_deadline_s", None)
            if next_deadline is None:
                return None
            deadline_s = next_deadline()
            if deadline_s < deadline:
                deadline = deadline_s
        return deadline

    def at(self, time: float, action: Action, priority: int = 0) -> Event:
        """Schedule ``action`` at absolute time ``time`` (seconds)."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        return self.queue.push(time, action, priority)

    def after(self, delay: float, action: Action, priority: int = 0) -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay}")
        return self.queue.push(self.now + delay, action, priority)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events until the queue drains or a bound is hit.

        Returns the number of events dispatched by this call.  When
        ``until`` is given, events at exactly ``until`` still fire; later
        ones stay queued and ``now`` advances to ``until``.

        Dispatch is split into specialized loops with identical
        semantics: the uninstrumented one (no trace, no time probe, no
        ``max_events``) does no per-event feature branching; when every
        registered time probe publishes a ``next_deadline_s()`` the
        probed fast path dispatches uninstrumented *between* deadlines —
        see docs/KERNEL.md for the fast-path discipline.

        Automatic cyclic garbage collection is paused for the drain and
        restored on exit (a caller that had disabled it keeps it
        disabled): event actions create no reference cycles, so the
        collector would only re-traverse the live packet heap — see
        "Collector policy" in docs/KERNEL.md.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until}) would move the clock back from {self.now}"
            )
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self.trace is None and max_events is None:
                if self.time_probe is None:
                    return self._run_fast(until)
                deadline = self._probe_deadline()
                if deadline is not None:
                    return self._run_fast_probed(until, deadline)
            return self._run_instrumented(until, max_events)
        finally:
            if enabled:
                gc.enable()

    def _run_fast(self, until: float | None) -> int:
        """Uninstrumented dispatch: one combined pop-if-due per event."""
        queue = self.queue
        pop_due = queue.pop_due
        bound = float("inf") if until is None else until
        dispatched = 0
        now = self.now
        while True:
            event = pop_due(bound)
            if event is None:
                break
            time = event.time
            if time < now:
                raise SimulationError(
                    f"event time {time} precedes current time {now}"
                )
            now = self.now = time
            event.action()
            dispatched += 1
        if until is not None and queue.peek_time() is not None:
            # Later events stay queued; the clock still advances to the
            # bound, matching the instrumented loop.
            self.now = until
        self.events_dispatched += dispatched
        return dispatched

    def _run_fast_probed(self, until: float | None, deadline: float) -> int:
        """Uninstrumented dispatch with deadline-aware time probes.

        Events strictly before the earliest probe deadline dispatch with
        the same one-pop-per-event loop as :meth:`_run_fast`; the probe
        chain only fires when an advance reaches a deadline — exactly
        the calls the instrumented loop would make that are not no-ops
        under the probe contract (see :meth:`_probe_deadline`).  Probes
        must all be registered before ``run``; installing one from
        inside an event action is not supported on this path.
        """
        queue = self.queue
        pop_due = queue.pop_due
        peek_time = queue.peek_time
        probe = self.time_probe
        bound = float("inf") if until is None else until
        dispatched = 0
        now = self.now
        while True:
            inner = bound if bound < deadline else deadline
            event = pop_due(inner)
            if event is None:
                next_time = peek_time()
                if next_time is None or next_time > bound:
                    break
                # deadline < next_time <= bound: the coming advance
                # crosses at least one probe deadline.  Fire the chain
                # with the advance target, as the instrumented loop
                # would, then re-read the horizon.
                probe(next_time)
                refreshed = self._probe_deadline()
                deadline = float("inf") if refreshed is None else refreshed
                if deadline <= next_time:
                    raise SimulationError(
                        "time probe violated the deadline contract: "
                        f"next_deadline_s() {deadline} did not advance "
                        f"past probed time {next_time}"
                    )
                continue
            time = event.time
            if time < now:
                raise SimulationError(
                    f"event time {time} precedes current time {now}"
                )
            if time > now:
                if time >= deadline:
                    probe(time)
                    refreshed = self._probe_deadline()
                    deadline = float("inf") if refreshed is None else refreshed
                    if deadline <= time:
                        raise SimulationError(
                            "time probe violated the deadline contract: "
                            f"next_deadline_s() {deadline} did not advance "
                            f"past probed time {time}"
                        )
                now = self.now = time
            event.action()
            dispatched += 1
        if until is not None and peek_time() is not None:
            if until > now:
                probe(until)
            self.now = until
        self.events_dispatched += dispatched
        return dispatched

    def _run_instrumented(
        self,
        until: float | None,
        max_events: int | None,
    ) -> int:
        """Reference dispatch loop: trace/probe/max_events all honoured."""
        dispatched = 0
        while True:
            if max_events is not None and dispatched >= max_events:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                if self.time_probe is not None and until > self.now:
                    self.time_probe(until)
                self.now = until
                break
            event = self.queue.pop()
            assert event is not None  # peek_time said there was one
            if event.time < self.now:
                raise SimulationError(
                    f"event time {event.time} precedes current time {self.now}"
                )
            if self.time_probe is not None and event.time > self.now:
                self.time_probe(event.time)
            self.now = event.time
            event.action()
            dispatched += 1
            if self.trace is not None:
                self._trace_dispatch(event)
        self.events_dispatched += dispatched
        return dispatched

    def _trace_dispatch(self, event: Event) -> None:
        from ..telemetry.events import Category, Severity

        self.trace.emit(
            Category.SIM,
            "sim.dispatch",
            event.time,
            component="sim.kernel",
            severity=Severity.DEBUG,
            sequence=event.sequence,
            priority=event.priority,
        )

    def step(self) -> bool:
        """Dispatch exactly one event; return False if the queue was empty."""
        return self.run(max_events=1) == 1
