"""The switch skeleton RMT and ADCP share.

Both targets move packets from RX ports through pipelines and traffic
managers to TX ports, and they settle a hook's verdict, admit packets
to the TM that routes by egress port, and transmit the same way.
:class:`BaseSwitch` holds that common part once, so
:mod:`repro.rmt.switch` and :mod:`repro.adcp.switch` keep only what the
paper says differs between the two:

- RMT (§2): the port -> pipeline mux, egress pinning, recirculation, and
  the rule that egress emissions loop back;
- ADCP (§3): the 1:m demux lanes (§3.3), TM1 placement with its
  ordered-merge front end and the central stage (§3.1), and the
  array-width check (§3.2).

The base never builds an event action itself.  Every closure handed to
``Simulator.at`` comes from a target's ``_make_*_event`` method, so a
profiler that books an action to the module defining it (as
``benchmarks/perf/layers.py`` does) still sees each target's own events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..net.packet import Packet
from ..net.traffic import batch_arrivals
from ..sim.component import Component
from ..sim.event import CollectorPause, Simulator
from ..telemetry.events import Category, Severity
from .app import SwitchApp
from .decision import Decision, Verdict
from .port import TxPort


@dataclass
class SwitchRunResult:
    """Everything a run produces, for assertions and reports."""

    delivered: list[Packet] = field(default_factory=list)
    dropped: list[Packet] = field(default_factory=list)
    consumed: int = 0
    recirculated_packets: int = 0
    recirculated_wire_bytes: int = 0
    unreachable_emissions: int = 0
    duration_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)

    @property
    def delivered_wire_bytes(self) -> int:
        return sum(p.wire_bytes for p in self.delivered)

    @property
    def delivered_goodput_bytes(self) -> int:
        return sum(p.goodput_bytes for p in self.delivered)

    @property
    def delivered_elements(self) -> int:
        return sum(p.element_count for p in self.delivered)

    def delivered_to(self, port: int) -> list[Packet]:
        return [p for p in self.delivered if p.meta.egress_port == port]

    def last_departure(self) -> float:
        if not self.delivered:
            raise ConfigError("no packets were delivered")
        return max(p.meta.departure_time for p in self.delivered)


class BaseSwitch(Component):
    """Run loop, telemetry, verdict settlement, egress admission and TX.

    A target's constructor calls ``super().__init__``, builds its
    pipelines and traffic managers, sets ``_egress_tm`` to the TM that
    routes by egress port (RMT's only TM, ADCP's TM2), and finally calls
    :meth:`_bind_telemetry`.  It supplies:

    - ``_make_ingress_event(packet, time)``, ``_make_burst_event(burst,
      time)``, ``_make_egress_event(packet, index, deliver)`` and
      ``_make_egress_burst_event(deliveries)``: the event actions;
    - ``_stamp_emission(emission, packet, station)``: what an emission
      inherits from the packet whose hook emitted it;
    - ``_recirculate(packet, ready, station)``: its RECIRCULATE policy;
    - ``_delivery_args(packet, port, departure)``: the
      ``packet.delivered`` trace fields;
    - optionally ``_steer``, a detour ahead of egress-TM admission.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is opt-in.
    Every telemetry level runs the same admission, pipeline, TM and
    dispatch code: a wired trace recorder only adds events along it
    (docs/DESIGN.md rule 3), and without one each trace site costs one
    None check.
    """

    def __init__(
        self,
        name: str,
        config,
        app: SwitchApp | None,
        telemetry,
        sim: Simulator | None,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.app = app
        self.telemetry = telemetry
        self.trace = None
        self.spans = None
        self.tx_ports = [
            TxPort(p, config.port_speed_bps) for p in range(config.num_ports)
        ]
        self._egress_tm = None
        self._sim = sim if sim is not None else Simulator()
        self._result = SwitchRunResult()
        self.port_sinks = {}
        """Optional per-port delivery hooks: ``{port: fn(packet, departure_s)}``.

        A fabric registers its :class:`~repro.fabric.link.Link` objects
        here so a transmitted packet continues to the next switch (or a
        host NIC) instead of leaving the simulated world.  The packet is
        still counted as delivered by *this* switch first.
        """
        self.route_resolver = None
        """Optional ``fn(packet) -> port | None`` consulted for unrouted
        unicast packets before egress-TM admission (fabric next-hop
        selection)."""
        # Hook elision: a hook the app never overrode is the base-class
        # pass-through (``Decision.forward()`` touching nothing), which the
        # pipelines treat as None and service on their no-PHV fast path.
        # Width enforcement keys off the app, not the (possibly elided)
        # hook, so it survives elision.
        self._ingress_hook = self._elide_hook("ingress")
        self._central_hook = self._elide_hook("central")
        self._egress_hook = self._elide_hook("egress")

    def _pipelines(
        self,
        region: str,
        count: int,
        clock_hz: float,
        ports_of,
        array_width: int = 1,
    ):
        """``count`` pipelines of one region with the config's stage
        geometry; ``ports_of(i)`` names the ports attached to pipeline
        ``i``."""
        # Imported here: repro.rmt imports this module at package import.
        from ..rmt.pipeline import Pipeline

        config = self.config
        return [
            Pipeline(
                i,
                region,
                clock_hz,
                self,
                stages=config.stages_per_pipeline,
                maus_per_stage=config.maus_per_stage,
                attached_ports=ports_of(i),
                array_width=array_width,
                parser_latency_cycles=config.parser_latency_cycles,
                phv_layout=config.phv_layout,
            )
            for i in range(count)
        ]

    def _elide_hook(self, region: str):
        """The app's hook for ``region``, or None if it is the inherited
        :class:`~repro.arch.app.SwitchApp` default (pure forward)."""
        app = self.app
        if app is None:
            return None
        if getattr(type(app), region) is getattr(SwitchApp, region):
            return None
        return getattr(app, region)

    # --- telemetry ----------------------------------------------------------------

    def _bind_telemetry(self, traced) -> None:
        """Attach the hub once every component exists.

        ``traced`` are the parts that emit trace events of their own
        (pipelines, traffic managers, ports).
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.bind(self)
        # Sampled spans are consulted per packet with one None check
        # (docs/SPANS.md).
        self.spans = getattr(telemetry, "spans", None)
        # A recorder disabled at construction is never wired, so such a
        # hub emits nothing and costs the same as passing none
        # (its monitor still samples; re-enabling later has no effect
        # on this switch).
        if telemetry.trace.enabled:
            trace = telemetry.trace
            self.trace = trace
            for part in traced:
                part.trace = trace

    def monitor_probes(self):
        """Switch-level resource-monitor series.

        Ports are not :class:`~repro.sim.component.Component` nodes, so
        the switch contributes their probes.  The recirculation count is
        registered on both targets: on ADCP it samples identically zero,
        which is the architectural claim a ledger diff against an RMT run
        makes machine-checkable.
        """
        path = self.path
        probes = {
            f"{path}.recirculations": lambda now_s: self.stats.value(
                f"{path}.recirculations"
            ),
        }
        for port in self.tx_ports:
            probes.update(
                port.monitor_probes(label=f"{path}.tx{port.port}")
            )
        return probes

    def _emit(
        self,
        category: Category,
        name: str,
        time_s: float,
        packet: Packet | None = None,
        severity: Severity = Severity.INFO,
        **args,
    ) -> None:
        """Record a switch-level trace event when telemetry is enabled."""
        self.trace.emit(
            category,
            name,
            time_s,
            component=self.path,
            severity=severity,
            packet_id=packet.packet_id if packet is not None else None,
            **args,
        )

    def _sampled_stream(self, timed_packets):
        """Head-based span sampling at injection (docs/SPANS.md).

        Wrapping the arrival stream keeps batched admission intact: the
        sampling decision is per packet, but the kernel still sees one
        event per distinct timestamp.
        """
        admit = self.spans.admit
        for time, packet in timed_packets:
            admit(packet)
            yield time, packet

    def _span_service(self, packet, record, pipeline, queue_hop="ingress_queue"):
        """Record one pipeline pass's span hops for a sampled packet."""
        span = packet.meta.span
        if span is not None:
            self.spans.service(
                span,
                packet.packet_id,
                self.name,
                record.ready_time,
                record.service_start,
                pipeline.parser_latency_cycles * pipeline.cycle_s,
                record.exit_time,
                queue_hop,
            )

    # --- run loop -----------------------------------------------------------------

    def run(self, timed_packets, until: float | None = None) -> SwitchRunResult:
        """Push a time-ordered iterable of ``(time, packet)`` through.

        Returns the accumulated :class:`SwitchRunResult`.  ``run`` may be
        called once per switch instance; construct a fresh switch per
        experiment so state and stats start clean.

        Admission is batched: one kernel event per distinct arrival
        timestamp serves the whole burst in stream order.  Every arrival
        carries the default event priority and the kernel breaks
        (time, priority) ties in schedule order, so this dispatches
        exactly as one :meth:`inject` per packet would.

        Admission and the drain share one
        :class:`~repro.sim.event.CollectorPause`.  A lazy
        ``timed_packets`` (``ParameterServerApp.workload``,
        ``SingleStream.arrivals``) builds its packets inside it, in
        stream order, and keeps no reference to a packet once admitted.
        """
        if self.spans is not None:
            timed_packets = self._sampled_stream(timed_packets)
        with CollectorPause():
            for time, burst in batch_arrivals(timed_packets):
                self._sim.at(time, self._make_burst_event(burst, time))
            self._sim.run(until=until)
        return self.finalize()

    def inject(self, packet: Packet, time: float) -> None:
        """Schedule one packet arrival without draining the event queue.

        A fabric pre-loads host arrivals and feeds link handoffs through
        this; the shared simulator is drained once by the fabric runner,
        after which each switch is :meth:`finalize`-d.  One call per
        arrival, then a drain, is the per-packet reference that batched
        admission (:meth:`run`, :meth:`inject_burst`) must match.
        """
        self._sim.at(time, self._make_ingress_event(packet, time))

    def inject_burst(self, packets: list[Packet], time: float) -> None:
        """Schedule several same-timestamp arrivals as one kernel event.

        The burst is serviced in list order, which matches the dispatch
        order per-packet :meth:`inject` calls would produce (equal-time
        events pop in push order), trace events included.
        """
        self._sim.at(time, self._make_burst_event(list(packets), time))

    def finalize(self, now_s: float | None = None) -> SwitchRunResult:
        """Seal the run result once the (possibly shared) simulator drained."""
        now = self._sim.now if now_s is None else now_s
        self._result.duration_s = now
        self._result.counters = self.stats.snapshot()
        if self.telemetry is not None:
            self.telemetry.finish(now)
        return self._result

    # --- verdicts -----------------------------------------------------------------

    def _settle(
        self, packet: Packet, decision: Decision, ready: float, station: str
    ) -> bool:
        """Send a hook's emissions on and settle its verdict.

        Emissions inherit the packet's arrival time and span (plus
        whatever the target stamps) and go to egress-TM admission.
        Returns True when the verdict is FORWARD: where the packet goes
        next is the station's business.
        """
        meta = packet.meta
        for emission in decision.emissions:
            emission.meta.arrival_time = meta.arrival_time
            if meta.span is not None:
                emission.meta.span = meta.span
            self._stamp_emission(emission, packet, station)
            self._to_tm(emission, ready, station)
        verdict = decision.verdict
        if verdict is Verdict.FORWARD:
            return True
        if verdict is Verdict.DROP:
            self._drop(packet, ready, decision.drop_reason or "dropped")
        elif verdict is Verdict.CONSUME:
            self._result.consumed += 1
            self.counter("consumed").add()
            if self.trace is not None:
                self._emit(Category.PACKET, "packet.consumed", ready, packet)
        else:
            self._recirculate(packet, ready, station)
        return False

    def _drop(self, packet: Packet, when: float, reason: str | None = None) -> None:
        """Record a dropped packet; ``reason`` overrides the one a TM set."""
        if reason is not None:
            packet.meta.drop_reason = reason
        self._result.dropped.append(packet)
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.dropped",
                when,
                packet,
                severity=Severity.WARNING,
                reason=packet.meta.drop_reason,
            )

    # --- egress TM + TX -----------------------------------------------------------

    def _steer(self, packet: Packet, ready: float, station: str) -> bool:
        """A target's detour ahead of egress-TM admission; True if taken."""
        return False

    def _to_tm(self, packet: Packet, ready: float, station: str) -> None:
        """Admit a packet to the egress TM, replicating multicast.

        Unrouted unicast packets first ask the fabric's route resolver;
        a packet still without a port is dropped as ``no_route``.  A
        packet or multicast copy the full buffer rejects is dropped with
        the TM's ``*_buffer_full`` reason.
        """
        meta = packet.meta
        if (
            self.route_resolver is not None
            and meta.egress_port is None
            and not meta.egress_ports
        ):
            meta.egress_port = self.route_resolver(packet)
        if self._steer(packet, ready, station):
            return
        if meta.egress_ports:
            rejected: list[Packet] = []
            deliveries = self._egress_tm.multicast_admit(
                packet, meta.egress_ports, ready, rejected
            )
            for copy in rejected:
                self._drop(copy, ready)
            spans = self.spans
            if spans is not None and meta.span is not None:
                # Replicated copies get fresh metadata; keep them on the
                # parent's span so every multicast leg is traced.
                span = meta.span
                for copy, _, deliver in deliveries:
                    copy.meta.span = span
                    spans.record(
                        span, copy.packet_id, self.name, "tm", ready, deliver
                    )
            # All copies of one multicast admission share a deliver time
            # (same ready, constant TM latency), so one kernel event
            # serves them in replication order: the dispatch order of
            # one event per copy.
            if deliveries:
                self._sim.at(
                    deliveries[0][2], self._make_egress_burst_event(deliveries)
                )
            return
        if meta.egress_port is None:
            self.counter("no_route_drops").add()
            self._drop(packet, ready, "no_route")
            return
        admitted = self._egress_tm.admit(packet, ready)
        if admitted is None:
            self._drop(packet, ready)
            return
        index, deliver = admitted
        if self.spans is not None and meta.span is not None:
            self.spans.record(
                meta.span, packet.packet_id, self.name, "tm", ready, deliver
            )
        self._sim.at(deliver, self._make_egress_event(packet, index, deliver))

    def _transmit(self, packet: Packet, ready: float) -> None:
        """Serialize onto the packet's TX port and hand it to the port sink."""
        port = packet.meta.egress_port
        departure = self.tx_ports[port].transmit(packet, ready)
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "egress_serial", ready, departure,
            )
        self._result.delivered.append(packet)
        self.counter("delivered").add()
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.delivered",
                ready,
                packet,
                **self._delivery_args(packet, port, departure),
            )
        sink = self.port_sinks.get(port)
        if sink is not None:
            sink(packet, departure)
