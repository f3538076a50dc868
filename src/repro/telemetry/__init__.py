"""Telemetry: structured tracing, resource monitoring, and timeline export.

An opt-in observability layer shared by both switch simulators.  Build a
:class:`Telemetry` hub, hand it to a switch constructor, and after the run
read the structured event stream (:class:`TraceRecorder`), the resource
time-series its :class:`ResourceMonitor` sampled on the simulation clock,
or export the whole run as a Chrome trace-event timeline
(:func:`to_chrome_trace`) loadable in ``chrome://tracing`` / Perfetto.

When no hub is passed, every instrumentation site in the simulators
reduces to a single ``is None`` check — runs without telemetry behave
byte-identically to the uninstrumented code.
"""

from .events import (
    DEFAULT_CATEGORIES,
    VERBOSE_CATEGORIES,
    Category,
    Severity,
    TraceEvent,
)
from .exporters import (
    chrome_trace_events,
    text_report,
    to_chrome_trace,
    write_chrome_trace,
)
from .attribution import (
    AttributionRow,
    AttributionTable,
    BottleneckReport,
    CriticalComponent,
    LittlesLawCheck,
    analyze_bottlenecks,
    attribution_gap,
    monitor_littles_checks,
)
from .ledger import (
    DEFAULT_THRESHOLD,
    LEDGER_SCHEMA,
    SPAN_LEDGER_SCHEMA,
    STATEFUL_LEDGER_SCHEMA,
    DiffRow,
    LedgerDiff,
    build_ledger,
    diff_ledgers,
    load_ledger,
    write_ledger,
)
from .sampler import SpanSampler, TelemetryLevel
from .spans import (
    SPAN_HOPS,
    CoflowCriticalPath,
    SpanRecord,
    SpanRecorder,
    build_span_ledger,
    coflow_critical_paths,
    span_chrome_events,
    span_overview_series,
    write_span_ledger,
)
from .monitor import DEFAULT_INTERVAL_NS, ResourceMonitor, SeriesSummary
from .profiler import (
    BUCKETS,
    QUEUE_BUCKETS,
    PacketProfile,
    RunProfile,
    profile_chrome_events,
    profile_run,
)
from .recorder import TraceRecorder
from .session import Telemetry

__all__ = [
    "AttributionRow",
    "AttributionTable",
    "BottleneckReport",
    "BUCKETS",
    "Category",
    "CoflowCriticalPath",
    "CriticalComponent",
    "DEFAULT_CATEGORIES",
    "DEFAULT_INTERVAL_NS",
    "DEFAULT_THRESHOLD",
    "DiffRow",
    "LEDGER_SCHEMA",
    "LedgerDiff",
    "LittlesLawCheck",
    "PacketProfile",
    "QUEUE_BUCKETS",
    "ResourceMonitor",
    "RunProfile",
    "SPAN_HOPS",
    "SPAN_LEDGER_SCHEMA",
    "STATEFUL_LEDGER_SCHEMA",
    "SeriesSummary",
    "Severity",
    "SpanRecord",
    "SpanRecorder",
    "SpanSampler",
    "Telemetry",
    "TelemetryLevel",
    "TraceEvent",
    "TraceRecorder",
    "VERBOSE_CATEGORIES",
    "analyze_bottlenecks",
    "attribution_gap",
    "build_ledger",
    "build_span_ledger",
    "chrome_trace_events",
    "coflow_critical_paths",
    "diff_ledgers",
    "load_ledger",
    "monitor_littles_checks",
    "profile_chrome_events",
    "profile_run",
    "span_chrome_events",
    "span_overview_series",
    "text_report",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_ledger",
    "write_span_ledger",
]
