"""The :class:`Telemetry` hub: one object that wires observability into a switch.

Usage::

    from repro import ADCPConfig, ADCPSwitch, Telemetry
    from repro.telemetry import ResourceMonitor

    telemetry = Telemetry(monitor=ResourceMonitor())   # samples every 50 ns
    switch = ADCPSwitch(ADCPConfig(num_ports=8), app, telemetry=telemetry)
    result = switch.run(app.workload(...))

    telemetry.trace.count(name="packet.delivered")   # == len(result.delivered)
    telemetry.monitor.series("adcp.tm1.occupancy")
    write_chrome_trace(
        "trace.json",
        chrome_trace_events(telemetry.trace)
        + telemetry.monitor.chrome_counter_events(),
    )

A hub is a trace recorder plus an optional
:class:`~repro.telemetry.monitor.ResourceMonitor` and optional sampled
spans.  It serves **one** switch: binding it attaches the monitor to
that switch's components and event kernel.  Build one hub per switch
when tracing several.

Disabling the recorder (``telemetry.trace.disable()``) *before* building
the switch skips trace wiring entirely — the switch emits nothing, as one
built with no hub, while the monitor keeps sampling.  Toggling the
recorder after construction only affects a switch that was built with
tracing enabled.  Wired or not, the recorder never changes which code a
run takes (docs/DESIGN.md rule 3).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ConfigError
from .events import Category, Severity
from .monitor import ResourceMonitor
from .recorder import TraceRecorder
from .sampler import SpanSampler, TelemetryLevel


class Telemetry:
    """Recorder + optional monitor + optional spans for one switch.

    Args:
        capacity: Trace ring-buffer depth.
        categories: Trace categories to record (None = default set).
        min_severity: Minimum recorded severity.
        monitor: Optional :class:`~repro.telemetry.monitor.ResourceMonitor`
            to attach at bind time: it collects every component's
            ``monitor_probes()`` and samples them on the simulation clock.
        spans: Optional :class:`~repro.telemetry.spans.SpanRecorder` the
            switch exposes as ``switch.spans`` — sampled per-hop spans
            without touching the trace path (docs/SPANS.md).  Several
            hubs may share one recorder (a fabric records all switches
            into one span stream).
    """

    def __init__(
        self,
        capacity: int = 65536,
        categories: Iterable[Category] | None = None,
        min_severity: Severity = Severity.DEBUG,
        monitor: ResourceMonitor | None = None,
        spans=None,
    ) -> None:
        self.trace = TraceRecorder(
            capacity=capacity,
            categories=categories,
            min_severity=min_severity,
        )
        self.monitor = monitor
        self.spans = spans
        self._switch = None

    @classmethod
    def at_level(
        cls,
        level: "TelemetryLevel | str",
        *,
        seed: int = 0,
        sample: int = 16,
        interval_ns: float | None = None,
        capacity: int = 65536,
    ) -> "Telemetry":
        """Build a hub for one rung of the telemetry-level ladder.

        ``off``/``counters``/``sampled`` disable the trace recorder
        *before* switch construction, so the switch records no trace
        events; ``counters`` and ``sampled`` add a
        :class:`ResourceMonitor` (deadline-aware, so dispatch stays on
        ``_run_fast``), and ``sampled`` adds a
        :class:`~repro.telemetry.spans.SpanRecorder` sampling 1 in
        ``sample`` packets.  ``full`` records every trace event.  All
        four run the same admission, pipeline and dispatch code.
        """
        from .spans import SpanRecorder

        level = TelemetryLevel.parse(level)
        monitor = None
        if level.wants_monitor:
            monitor = (
                ResourceMonitor(interval_ns=interval_ns)
                if interval_ns is not None
                else ResourceMonitor()
            )
        spans = None
        if level.wants_spans:
            spans = SpanRecorder(SpanSampler(seed=seed, sample=sample))
        hub = cls(capacity=capacity, monitor=monitor, spans=spans)
        if not level.wants_trace:
            hub.trace.disable()
        return hub

    # --- switch wiring ------------------------------------------------------------

    def bind(self, switch) -> None:
        """Attach this hub to a switch (called by the switch constructor).

        Attaches the monitor, when the hub carries one, to the switch's
        components and event kernel.
        """
        if self._switch is not None and self._switch is not switch:
            raise ConfigError(
                "a Telemetry hub serves one switch; build one hub per switch"
            )
        self._switch = switch
        if self.monitor is not None:
            self.monitor.attach(switch)

    def finish(self, now_s: float) -> None:
        """Take the monitor's end-of-run sample (called by the switch)."""
        if self.monitor is not None:
            self.monitor.finish(now_s)

    @property
    def switch(self):
        """The switch this hub is bound to, if any."""
        return self._switch
