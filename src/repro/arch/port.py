"""Transmit-side port model: serialization at link rate.

A TX port is a single server whose service time is the packet's wire time
(wire bytes x 8 / link speed).  Packets handed to a busy port queue behind
it; the port records per-packet departure times, byte counts, and the
busy/idle split, which is how experiments compute achieved throughput and
goodput per port.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from ..net.packet import Packet
from ..units import BITS_PER_BYTE


class TxPort:
    """One transmit port, serializing packets at ``link_bps``."""

    def __init__(self, port: int, link_bps: float) -> None:
        if port < 0:
            raise ConfigError(f"port index must be >= 0, got {port}")
        if link_bps <= 0:
            raise ConfigError(f"link speed must be positive, got {link_bps}")
        self.port = port
        self.component = f"port.tx{port}"
        """The name trace events and span records book this port's time to."""
        self.link_bps = link_bps
        self._free_at = 0.0
        self._queue: deque[Packet] = deque()
        self.packets_sent = 0
        self.wire_bytes_sent = 0
        self.goodput_bytes_sent = 0
        self.busy_seconds = 0.0
        self.last_departure = 0.0
        self.trace = None
        """Optional :class:`~repro.telemetry.recorder.TraceRecorder`; the
        owning switch wires it when telemetry is enabled."""

    def wire_time(self, packet: Packet) -> float:
        """Seconds the packet occupies the wire."""
        return packet.wire_bytes * BITS_PER_BYTE / self.link_bps

    def transmit(self, packet: Packet, ready_time: float) -> float:
        """Serialize ``packet``; returns its departure (last-bit) time.

        ``ready_time`` is when the packet reached the port; transmission
        starts then or when the port frees up, whichever is later.
        """
        start = max(ready_time, self._free_at)
        duration = self.wire_time(packet)
        departure = start + duration
        self._free_at = departure
        self.packets_sent += 1
        self.wire_bytes_sent += packet.wire_bytes
        self.goodput_bytes_sent += packet.goodput_bytes
        self.busy_seconds += duration
        self.last_departure = departure
        packet.meta.departure_time = departure
        if self.trace is not None:
            self._trace_tx(packet, ready_time, start, duration, departure)
        return departure

    def _trace_tx(
        self,
        packet: Packet,
        ready: float,
        start: float,
        duration: float,
        departure: float,
    ) -> None:
        from ..telemetry.events import Category

        # ready_s/departure_s are the exact queue-enter and last-bit
        # floats, not re-derived from start + duration.
        self.trace.emit(
            Category.PORT,
            "port.tx",
            start,
            component=self.component,
            packet_id=packet.packet_id,
            duration_s=duration,
            port=self.port,
            wire_bytes=packet.wire_bytes,
            ready_s=ready,
            departure_s=departure,
        )

    def utilization(self, horizon_s: float) -> float:
        """Fraction of ``horizon_s`` the port spent transmitting."""
        if horizon_s <= 0:
            raise ConfigError(f"horizon must be positive, got {horizon_s}")
        return min(1.0, self.busy_seconds / horizon_s)

    def backlog_s(self, now_s: float) -> float:
        """Seconds of serialization already committed beyond ``now_s``.

        The port is a single server, so the committed busy horizon is the
        exact queueing delay the next arrival would see — the monitor's
        per-port queue-depth series.
        """
        return max(0.0, self._free_at - now_s)

    def monitor_probes(self, label: str | None = None):
        """Resource-monitor series for this port, keyed by dotted name.

        ``label`` overrides the series prefix (the switch uses it to name
        recirculation loopback ports distinctly from front-panel ports).
        """
        prefix = label or self.component
        return {
            f"{prefix}.utilization": lambda now_s: (
                min(1.0, self.busy_seconds / now_s) if now_s > 0 else 0.0
            ),
            f"{prefix}.backlog_s": self.backlog_s,
        }

    @property
    def achieved_bps(self) -> float:
        """Average bits per second up to the last departure."""
        if self.last_departure <= 0:
            return 0.0
        return self.wire_bytes_sent * BITS_PER_BYTE / self.last_departure
