"""The traffic manager: a shared-memory, output-buffered switching element.

"The TM is a switching element responsible for forwarding the packet to
the pipeline to which its designated TX port is connected ... implemented
as a shared-memory area and work[ing] as an output-buffered scheduler"
(paper, section 2).  This model tracks a bounded shared buffer, admits or
drops packets, applies a fixed traversal latency, and resolves each
packet's egress pipeline from its egress port.

The ADCP reuses this class for its *second* TM and subclasses it for the
application-aware *first* TM (:mod:`repro.adcp.traffic_manager`).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..net.packet import Packet
from ..sim.component import Component


class TrafficManager(Component):
    """Bounded shared-memory scheduler between pipeline banks.

    ``route(packet) -> int`` maps a packet to a downstream pipeline index.
    Occupancy rises on admit and falls when the caller reports the packet
    left the buffer (:meth:`release` — i.e. its downstream pipeline started
    serving it); a full buffer drops.
    """

    def __init__(
        self,
        name: str,
        parent: Component,
        route: Callable[[Packet], int],
        buffer_packets: int = 4096,
        latency_s: float = 0.0,
    ) -> None:
        super().__init__(name, parent)
        if buffer_packets < 1:
            raise ConfigError("TM buffer must hold at least one packet")
        if latency_s < 0:
            raise ConfigError("TM latency must be non-negative")
        self.route = route
        self.buffer_packets = buffer_packets
        self.latency_s = latency_s
        self.occupancy = 0
        self.peak_occupancy = 0
        self.trace = None
        """Optional :class:`~repro.telemetry.recorder.TraceRecorder`; the
        owning switch wires it when telemetry is enabled."""
        # Counter handles, bound on first use so the stats registry sees
        # the same creation order as per-call ``self.counter(...)`` lookups.
        self._admitted_counter = None
        self._drops_counter = None

    @property
    def credits(self) -> int:
        """Free buffer slots: how much admission headroom remains."""
        return self.buffer_packets - self.occupancy

    def monitor_probes(self):
        """Resource-monitor series: occupancy, headroom, high-water mark."""
        path = self.path
        return {
            f"{path}.occupancy": lambda now_s: float(self.occupancy),
            f"{path}.credits": lambda now_s: float(self.credits),
            f"{path}.peak_occupancy": lambda now_s: float(self.peak_occupancy),
        }

    def admit(
        self,
        packet: Packet,
        ready_time: float,
        pipeline: int | None = None,
    ) -> tuple[int, float] | None:
        """Try to accept a packet.

        Returns ``(egress_pipeline, deliver_time)`` on success, or None on
        a buffer-full drop (the packet's metadata records the reason).
        ``pipeline`` overrides the route function when the caller already
        knows the destination (recirculation loopbacks, pinned state).
        """
        if self.occupancy >= self.buffer_packets:
            drops = self._drops_counter
            if drops is None:
                drops = self._drops_counter = self.counter("drops")
            drops.add()
            packet.meta.drop_reason = f"{self.name}_buffer_full"
            if self.trace is not None:
                self._trace_event(
                    "tm.reject", ready_time, packet, occupancy=self.occupancy
                )
            return None
        self.occupancy += 1
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy
        admitted = self._admitted_counter
        if admitted is None:
            admitted = self._admitted_counter = self.counter("admitted")
        admitted.add()
        if pipeline is None:
            pipeline = self.route(packet)
        deliver = ready_time + self.latency_s
        if self.trace is not None:
            # deliver_s is the exact float handed back to the switch.
            self._trace_event(
                "tm.admit",
                ready_time,
                packet,
                occupancy=self.occupancy,
                pipeline=pipeline,
                deliver_s=deliver,
            )
        return pipeline, deliver

    def admit_burst(
        self,
        packets: list[Packet],
        ready_time: float,
        pipeline: int | None = None,
    ) -> tuple[list[tuple[Packet, int, float]], list[Packet]]:
        """Admit a whole same-timestamp burst in stream order.

        One clock edge can deliver several packets (batched injection, a
        pipeline bank draining in lockstep); admitting them in a single
        call keeps the per-packet accounting identical to sequential
        :meth:`admit` while letting the switch schedule one kernel event
        for the burst.  Returns ``(admitted, rejected)`` where
        ``admitted`` holds ``(packet, egress_pipeline, deliver_time)``
        triples and ``rejected`` the buffer-full drops, both in stream
        order.
        """
        admitted: list[tuple[Packet, int, float]] = []
        rejected: list[Packet] = []
        for packet in packets:
            outcome = self.admit(packet, ready_time, pipeline)
            if outcome is None:
                rejected.append(packet)
            else:
                admitted.append((packet, outcome[0], outcome[1]))
        return admitted, rejected

    def release(self, packet: Packet, now: float | None = None) -> None:
        """Report that a previously admitted packet left the buffer.

        ``now`` timestamps the dequeue in the telemetry trace; accounting
        is unaffected when omitted.
        """
        if self.occupancy <= 0:
            raise ConfigError(
                f"TM {self.name!r} released more packets than it admitted"
            )
        self.occupancy -= 1
        if self.trace is not None and now is not None:
            self._trace_event(
                "tm.release", now, packet, occupancy=self.occupancy
            )

    def _trace_event(self, name: str, time_s: float, packet: Packet, **args) -> None:
        from ..telemetry.events import Category, Severity

        rejected = name == "tm.reject"
        self.trace.emit(
            Category.ADMISSION if rejected else Category.TM,
            name,
            time_s,
            component=self.path,
            severity=Severity.WARNING if rejected else Severity.INFO,
            packet_id=packet.packet_id,
            **args,
        )

    def multicast_admit(
        self,
        packet: Packet,
        ports: tuple[int, ...],
        ready_time: float,
        rejected: list[Packet] | None = None,
    ) -> list[tuple[Packet, int, float]]:
        """Replicate a packet toward several egress ports.

        Output-buffered multicast: one buffer slot per copy.  Copies that
        do not fit are dropped individually (partial delivery, as real
        shared-memory TMs behave under pressure) and appended to
        ``rejected``, in replication order, so the caller can record
        them.  Returns a list of ``(copy, egress_pipeline,
        deliver_time)``.
        """
        if not ports:
            raise ConfigError("multicast needs at least one port")
        deliveries: list[tuple[Packet, int, float]] = []
        for port in ports:
            copy = packet.copy()
            copy.meta.ingress_port = packet.meta.ingress_port
            copy.meta.arrival_time = packet.meta.arrival_time
            copy.meta.egress_port = port
            copy.meta.egress_ports = ()
            admitted = self.admit(copy, ready_time)
            if admitted is None:
                if rejected is not None:
                    rejected.append(copy)
                continue
            if self.trace is not None:
                # Replication severs the packet-id chain: the parent ends
                # here and each copy starts a fresh trace lineage, which
                # this event links back to the parent.
                self._trace_event(
                    "packet.replicated",
                    ready_time,
                    copy,
                    parent_id=packet.packet_id,
                )
            pipeline, deliver = admitted
            deliveries.append((copy, pipeline, deliver))
        return deliveries
