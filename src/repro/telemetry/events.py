"""Structured trace events.

A :class:`TraceEvent` is one timestamped observation of switch-internal
behaviour: a packet entering a pipeline, a TM admitting or rejecting, a
recirculation pass, a merge release.  Events carry a *category* (what kind
of machinery produced them) and a *severity* (how notable they are), which
the :class:`~repro.telemetry.recorder.TraceRecorder` filters on, plus a
monotonically increasing sequence number so a seeded run always produces
the same event stream in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum


class Category(Enum):
    """What kind of switch machinery emitted an event."""

    PACKET = "packet"
    """Packet lifecycle: arrival, delivery, drop, consume."""

    PIPELINE = "pipeline"
    """One packet's service through a parser + stage ladder."""

    STAGE = "stage"
    """Per-stage execution detail (verbose; DEBUG severity)."""

    TM = "tm"
    """Traffic-manager enqueue/dequeue."""

    ADMISSION = "admission"
    """Admission rejects: TM buffer full, unreachable destinations."""

    RECIRC = "recirc"
    """RMT recirculation passes (the paper's bandwidth tax)."""

    MERGE = "merge"
    """TM1 k-way merge activity (offer, release, flush)."""

    PORT = "port"
    """TX-port serialization."""


class Severity(IntEnum):
    """How notable an event is; recorders drop below their threshold."""

    DEBUG = 10
    INFO = 20
    WARNING = 30
    ERROR = 40


#: Categories that are too chatty for default recording: per-stage
#: detail.  Opt in explicitly.
VERBOSE_CATEGORIES = frozenset({Category.STAGE})

#: The default recording set: everything except the verbose categories.
DEFAULT_CATEGORIES = frozenset(set(Category) - VERBOSE_CATEGORIES)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation.

    Attributes:
        seq: Recorder-assigned sequence number; total order of emission.
        time_s: Simulated time of the observation, in seconds.
        category: Machinery that produced the event.
        name: Dotted event name, e.g. ``"packet.delivered"``.
        component: Dotted path of the emitting component (``"rmt.ingress0"``).
        severity: Notability level.
        packet_id: Id of the packet involved, when there is one.
        duration_s: Span length for interval events (pipeline service,
            port serialization); None for instants.
        args: Free-form structured detail (occupancies, verdicts, ports).
    """

    seq: int
    time_s: float
    category: Category
    name: str
    component: str = ""
    severity: Severity = Severity.INFO
    packet_id: int | None = None
    duration_s: float | None = None
    args: dict = field(default_factory=dict)

    @property
    def end_time_s(self) -> float:
        """End of the event's span (== ``time_s`` for instants)."""
        return self.time_s + (self.duration_s or 0.0)
