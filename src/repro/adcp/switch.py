"""The ADCP switch: demuxed lanes, two TMs, and the global area (Figure 4).

Packet lifecycle: RX port -> one of the port's m ingress lanes ->
TM1 (application placement) -> central pipeline -> TM2 (classic, by egress
port) -> one of the destination port's m egress lanes -> TX port.  The
run loop, verdict settlement, TM2 admission and transmit are the shared
:class:`~repro.arch.switch.BaseSwitch`; this module keeps what section 3
says is ADCP's own.

Two properties distinguish this from :class:`repro.rmt.switch.RMTSwitch`:

- Every packet can reach the state partition of its key directly (TM1
  routes by key, not by port), and every result can reach every port
  (TM2 sits *after* the state) — no pinning, no recirculation.
- Central stages are array-capable, so a stateful hook accepts a whole
  element array per packet (up to ``array_width``).
"""

from __future__ import annotations

from ..arch.app import SwitchApp
from ..arch.switch import BaseSwitch
from ..coflow.placement import PlacementPolicy
from ..errors import ConfigError
from ..net.headers import OP_FLUSH
from ..net.packet import Packet
from ..sim.event import Simulator
from ..telemetry.events import Category
from ..rmt.traffic_manager import TrafficManager
from .config import ADCPConfig
from .scheduler import KWayMergeScheduler
from .traffic_manager import ApplicationTrafficManager


class ADCPSwitch(BaseSwitch):
    """Executable model of the proposed ADCP architecture."""

    def __init__(
        self,
        config: ADCPConfig,
        app: SwitchApp | None = None,
        placement: PlacementPolicy | None = None,
        ordered_flows: list[int] | None = None,
        telemetry=None,
        sim: Simulator | None = None,
        name: str = "adcp",
    ) -> None:
        """Build an ADCP switch.

        ``ordered_flows`` activates TM1's expanded scheduling semantics
        (section 3.1): packets of the listed coflow-header flow ids are
        buffered in front of TM1 and released in globally nondecreasing
        key order via a k-way merge of the (individually sorted) flows.
        An OP_FLUSH packet finishes its flow and is absorbed.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is opt-in;
        it records events and never changes the path a packet takes.
        """
        super().__init__(name, config, app, telemetry, sim)
        # Array support (section 3.2): a packet may carry up to one
        # array's worth of elements.
        if app is not None and app.elements_per_packet > config.array_width:
            raise ConfigError(
                f"app {app.name!r} packs {app.elements_per_packet} elements "
                f"per packet but the ADCP arrays are "
                f"{config.array_width} wide"
            )
        # 1:m port demultiplexing (section 3.3): each lane serves one port
        # at 1/m of its rate; the central area serves no port at all.
        width = config.array_width
        lane_hz = config.lane_frequency_hz

        def lane_port(lane):
            return (config.port_of_lane(lane),)

        self.ingress = self._pipelines(
            "ingress", config.ingress_pipelines, lane_hz, lane_port,
            array_width=width,
        )
        self.central = self._pipelines(
            "central", config.central_pipelines, config.central_clock_hz,
            lambda partition: (), array_width=width,
        )
        self.egress = self._pipelines(
            "egress", config.egress_pipelines, lane_hz, lane_port,
            array_width=width,
        )
        key_fn = (
            app.placement_key if app is not None else SwitchApp.placement_key
        )
        if app is not None:
            app.bind_placement(config.central_pipelines)
            if placement is None:
                placement = app.placement_policy
        tm_latency = config.tm_latency_cycles / config.central_clock_hz
        self.tm1 = ApplicationTrafficManager(
            "tm1",
            self,
            central_pipelines=config.central_pipelines,
            key_fn=key_fn,
            policy=placement,
            buffer_packets=config.tm_buffer_packets,
            latency_s=tm_latency,
        )
        self.tm2 = self._egress_tm = TrafficManager(
            "tm2",
            self,
            route=self._egress_lane_of_packet,
            buffer_packets=config.tm_buffer_packets,
            latency_s=tm_latency,
        )
        self._next_ingress_lane = [0] * config.num_ports
        self._next_egress_lane = [0] * config.num_ports
        self._merge = (
            KWayMergeScheduler(list(ordered_flows)) if ordered_flows else None
        )
        self._bind_telemetry(
            self.ingress + self.central + self.egress
            + [self.tm1, self.tm2] + self.tx_ports
        )

    # --- topology helpers --------------------------------------------------------

    def _pick_ingress_lane(self, port: int) -> int:
        lane = self._next_ingress_lane[port]
        self._next_ingress_lane[port] = (lane + 1) % self.config.demux_factor
        return self.config.lane_of(port, lane)

    def _egress_lane_of_packet(self, packet: Packet) -> int:
        port = packet.meta.egress_port
        if port is None:
            raise ConfigError("packet reached TM2 without an egress port")
        lane = self._next_egress_lane[port]
        self._next_egress_lane[port] = (lane + 1) % self.config.demux_factor
        return self.config.lane_of(port, lane)

    def monitor_probes(self):
        """Adds TM1's merge depth when the ordered-flow front end is active."""
        probes = super().monitor_probes()
        if self._merge is not None:
            probes[f"{self.tm1.path}.merge_depth"] = lambda now_s: float(
                self._merge.pending()
            )
        return probes

    # --- event actions ------------------------------------------------------------

    def _make_ingress_event(self, packet: Packet, time: float):
        def event() -> None:
            self._ingress_service(packet, time)

        return event

    def _make_burst_event(self, burst: list[Packet], time: float):
        def event() -> None:
            self._sim.events_coalesced += len(burst) - 1
            for packet in burst:
                self._ingress_service(packet, time)

        return event

    def _make_egress_event(self, packet: Packet, lane: int, deliver: float):
        def event() -> None:
            self._egress_service(packet, lane, deliver)

        return event

    def _make_egress_burst_event(self, deliveries):
        deliver = deliveries[0][2]

        def event() -> None:
            self._sim.events_coalesced += len(deliveries) - 1
            for copy, lane, _ in deliveries:
                self._egress_service(copy, lane, deliver)

        return event

    # --- stations -------------------------------------------------------------------

    def _ingress_service(self, packet: Packet, ready: float) -> None:
        port = packet.meta.ingress_port
        if port is None:
            raise ConfigError("arriving packet has no ingress port")
        lane = self._pick_ingress_lane(port)
        packet.meta.lane = lane
        pipeline = self.ingress[lane]
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.ingress",
                ready,
                packet,
                port=port,
                lane=lane,
            )
        record = pipeline.service(packet, ready, self._ingress_hook)
        if self.spans is not None:
            self._span_service(packet, record, pipeline)
        if self._settle(packet, record.decision, record.exit_time, "ingress"):
            self._offer_tm1(packet, record.exit_time)

    def _offer_tm1(self, packet: Packet, ready: float) -> None:
        """Hand a packet to TM1, through the merge front-end when active."""
        if self._merge is None or not packet.has_header("coflow"):
            self._to_tm1(packet, ready)
            return
        header = packet.header("coflow")
        if not self._merge.has_flow(header["flow_id"]):
            self._to_tm1(packet, ready)
            return
        if header["opcode"] == OP_FLUSH:
            released = self._merge.finish_flow(header["flow_id"])
            self._result.consumed += 1
            self.counter("merge_flushes").add()
            if self.trace is not None:
                self._emit(
                    Category.MERGE,
                    "merge.flush",
                    ready,
                    packet,
                    flow=header["flow_id"],
                    released=len(released),
                    depth=self._merge.pending(),
                )
        else:
            released = self._merge.offer(packet)
            if self.trace is not None:
                self._emit(
                    Category.MERGE,
                    "merge.offer",
                    ready,
                    packet,
                    flow=header["flow_id"],
                    released=len(released),
                    depth=self._merge.pending(),
                )
        self._release_to_tm1(released, ready)

    def _admit_tm1(
        self, packet: Packet, ready: float
    ) -> tuple[int, float] | None:
        """TM1 admission: ``(partition, deliver)``, or None once the
        rejected packet is dropped."""
        admitted = self.tm1.admit(packet, ready)
        if admitted is None:
            self._drop(packet, ready)
            return None
        if self.spans is not None and packet.meta.span is not None:
            self.spans.record(
                packet.meta.span, packet.packet_id, self.name,
                "tm", ready, admitted[1],
            )
        return admitted

    def _to_tm1(self, packet: Packet, ready: float) -> None:
        admitted = self._admit_tm1(packet, ready)
        if admitted is None:
            return
        partition, deliver = admitted

        def event() -> None:
            self._central_service(packet, partition, deliver)

        self._sim.at(deliver, event)

    def _release_to_tm1(self, released: list[Packet], ready: float) -> None:
        """Admit the merge's releases to TM1, in order, and serve them
        with one central event.

        The releases share ``ready`` and TM1's latency is constant, so
        the admitted ones share a delivery time too; one event serves
        them in release order, the order one event per packet would
        dispatch them in.
        """
        admitted = []
        for packet in released:
            if self.trace is not None:
                self._emit(Category.MERGE, "merge.release", ready, packet)
            outcome = self._admit_tm1(packet, ready)
            if outcome is not None:
                partition, deliver = outcome
                admitted.append((packet, partition))
        if not admitted:
            return

        def event() -> None:
            self._sim.events_coalesced += len(admitted) - 1
            for packet, partition in admitted:
                self._central_service(packet, partition, deliver)

        self._sim.at(deliver, event)

    def _central_service(
        self, packet: Packet, partition: int, ready: float
    ) -> None:
        pipeline = self.central[partition]
        packet.meta.central_pipeline = partition
        record = pipeline.service(
            packet,
            ready,
            self._central_hook,
            enforce_width=self.app is not None,
        )
        if self.spans is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm1.release(packet, now=record.exit_time)
        packet.meta.central_done = True
        if self._settle(packet, record.decision, record.exit_time, "central"):
            self._to_tm(packet, record.exit_time, "central")

    def _egress_service(self, packet: Packet, lane: int, ready: float) -> None:
        pipeline = self.egress[lane]
        packet.meta.egress_pipeline = lane
        record = pipeline.service(packet, ready, self._egress_hook)
        if self.spans is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm2.release(packet, now=record.exit_time)
        if record.decision.emissions:
            raise ConfigError(
                "ADCP egress hooks must not emit packets; emit from the "
                "central hook, where TM2 can still route them"
            )
        if self._settle(packet, record.decision, record.exit_time, "egress"):
            self._transmit(packet, record.exit_time)

    def _delivery_args(self, packet: Packet, port: int, departure: float) -> dict:
        return {
            "port": port,
            "lane": packet.meta.egress_pipeline,
            "departure_s": departure,
        }

    # --- verdict policy -------------------------------------------------------------

    def _stamp_emission(self, emission: Packet, packet: Packet, station: str) -> None:
        """Central emissions record their partition and skip the state hook."""
        if station == "central":
            emission.meta.central_pipeline = packet.meta.central_pipeline
            emission.meta.central_done = True

    def _recirculate(self, packet: Packet, ready: float, station: str) -> None:
        """Refused in every region: TM1 already reaches every partition."""
        raise ConfigError(
            "ADCP programs never recirculate: route state through the "
            "central area instead"
        )
