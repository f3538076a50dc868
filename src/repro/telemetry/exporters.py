"""Exporters: Chrome trace-event JSON and plain-text run reports.

The Chrome trace-event format (the JSON ``chrome://tracing`` / Perfetto
load natively) maps cleanly onto switch telemetry:

- interval events (pipeline service, port serialization) become complete
  (``"ph": "X"``) slices with a duration;
- instant events (recirculations, drops, TM admits) become ``"ph": "i"``
  instants;
- resource-monitor series become ``"ph": "C"`` counter tracks
  (:meth:`~repro.telemetry.monitor.ResourceMonitor.chrome_counter_events`).

Timestamps are microseconds (floats are allowed, which matters at the
nanosecond scale these simulations run at).  The process id is the switch
the event came from (``rmt``/``adcp``) and the thread id is the component
within it, so the timeline groups lanes per pipeline/TM/port.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .events import TraceEvent
from .monitor import ResourceMonitor
from .recorder import TraceRecorder

_US_PER_S = 1e6


def _split_component(component: str) -> tuple[str, str]:
    """Split a dotted component path into (process, thread) labels."""
    if not component:
        return "switch", "events"
    root, _, rest = component.partition(".")
    return root, rest or root


def chrome_trace_events(
    events: Iterable[TraceEvent],
    pid: str | None = None,
) -> list[dict]:
    """Convert trace events into a list of Chrome trace-event dicts.

    ``pid`` overrides the process label (useful when combining several
    switches into one timeline); by default each event's component root
    names the process.
    """
    out: list[dict] = []
    for event in events:
        proc, thread = _split_component(event.component)
        entry: dict = {
            "name": event.name,
            "cat": event.category.value,
            "pid": pid or proc,
            "tid": thread,
            "ts": event.time_s * _US_PER_S,
            "args": {
                "seq": event.seq,
                "severity": event.severity.name,
                **({"packet_id": event.packet_id} if event.packet_id is not None else {}),
                **event.args,
            },
        }
        if event.duration_s is not None:
            entry["ph"] = "X"
            entry["dur"] = event.duration_s * _US_PER_S
        else:
            entry["ph"] = "i"
            entry["s"] = "t"  # instant scoped to its thread lane
        out.append(entry)
    return out


def to_chrome_trace(
    recorder: TraceRecorder,
    pid: str | None = None,
) -> dict:
    """A complete Chrome trace document for one recorder."""
    return {
        "displayTimeUnit": "ns",
        "traceEvents": chrome_trace_events(recorder, pid=pid),
    }


def write_chrome_trace(
    path: str | Path,
    trace_events: list[dict] | dict,
) -> Path:
    """Write trace events (a list, or a full document) as JSON.

    Returns the path written.  A bare list is wrapped in the standard
    ``{"traceEvents": [...]}`` envelope.
    """
    document = (
        trace_events
        if isinstance(trace_events, dict)
        else {"displayTimeUnit": "ns", "traceEvents": trace_events}
    )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=1, sort_keys=True))
    return target


def text_report(
    recorder: TraceRecorder,
    monitor: ResourceMonitor | None = None,
    title: str = "telemetry",
    counters: dict[str, float] | None = None,
) -> list[str]:
    """A human-readable run summary: event totals, then the final value
    of every counter and of every monitored series."""
    lines = [f"telemetry report — {title}"]
    lines.append(
        f"  events: {recorder.emitted} emitted, {len(recorder)} retained, "
        f"{recorder.overwritten} overwritten, {recorder.filtered} filtered"
    )
    for name, count in recorder.counts_by_name().items():
        lines.append(f"    {name:<28} {count:>8}")
    final = dict(counters or {})
    if monitor is not None and len(monitor):
        times = monitor.times_s
        lines.append(
            f"  samples: {len(monitor)} "
            f"({times[0] * 1e9:.0f}..{times[-1] * 1e9:.0f} ns)"
        )
        final.update(
            (name, monitor.column(name)[-1]) for name in monitor.names
        )
    for name in sorted(final):
        lines.append(f"    {name:<40} {final[name]:>12g}")
    return lines
