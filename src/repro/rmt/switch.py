"""The RMT switch: the port -> pipeline mux and the coflow workarounds.

Packet lifecycle (Figure 1): RX port -> ingress pipeline (the one the port
is multiplexed into) -> traffic manager -> egress pipeline (the one the TX
port lives on) -> TX port.  The run loop, verdict settlement, TM admission
and transmit are the shared :class:`~repro.arch.switch.BaseSwitch`; this
module keeps what section 2 says is RMT's own.

Stateful coflow applications do not fit that lifecycle, and this model
implements both published workarounds so experiments can price them:

- **Egress pinning** (:attr:`StateMode.EGRESS_PIN`): all packets of a
  coflow are steered to one egress pipeline where the state lives.
  Results whose destination port is attached there exit directly; any
  other destination requires recirculation (or is unreachable when
  recirculation is disabled) — the Figure 2 limitation.
- **Recirculation to state** (:attr:`StateMode.RECIRCULATE`): state lives
  in an ingress pipeline chosen by key hash; packets arriving on the wrong
  pipeline cross the TM, loop back through a recirculation port, and pay a
  second ingress pass — the bandwidth tax the paper cites.

Stateful processing also forces **scalar packets**: a packet carrying more
than one element cannot pass a stateful hook on a width-1 pipeline (the
run refuses at admission), so workloads must be restructured to one
element per packet, which is how RMT loses the Figure 6 key-rate race.
"""

from __future__ import annotations

from ..arch.app import SwitchApp
from ..arch.decision import Verdict
from ..arch.port import TxPort
from ..arch.switch import BaseSwitch
from ..errors import CompileError, ConfigError
from ..net.packet import Packet
from ..sim.event import Simulator
from ..sim.rng import stable_hash64
from ..telemetry.events import Category, Severity
from .config import RMTConfig, StateMode
from .traffic_manager import TrafficManager


class RMTSwitch(BaseSwitch):
    """Executable model of a classic RMT switch."""

    def __init__(
        self,
        config: RMTConfig,
        app: SwitchApp | None = None,
        telemetry=None,
        sim: Simulator | None = None,
        name: str = "rmt",
    ) -> None:
        super().__init__(name, config, app, telemetry, sim)
        if (
            app is not None
            and app.uses_central_state()
            and app.elements_per_packet > 1
        ):
            raise CompileError(
                f"app {app.name!r} keeps cross-flow state and packs "
                f"{app.elements_per_packet} elements per packet; RMT's "
                f"scalar match-action units require stateful workloads to "
                f"use one element per packet (restructure the packet "
                f"format, as section 2 issue 2 describes)"
            )
        # The port -> pipeline mux: n/p ports share each pipeline.
        mux = (config.pipelines, config.frequency_hz, config.ports_of_pipeline)
        self.ingress = self._pipelines("ingress", *mux)
        self.egress = self._pipelines("egress", *mux)
        self.tm = self._egress_tm = TrafficManager(
            "tm",
            self,
            route=self._egress_pipeline_of_packet,
            buffer_packets=config.tm_buffer_packets,
            latency_s=config.tm_latency_cycles / config.frequency_hz,
        )
        self.recirc_ports = [
            TxPort(
                config.num_ports + i,
                config.port_speed_bps * config.recirculation_ports_per_pipeline,
            )
            for i in range(config.pipelines)
        ]
        self._bind_telemetry(
            self.ingress + self.egress + [self.tm]
            + self.tx_ports + self.recirc_ports
        )
        if app is not None:
            app.bind_placement(config.pipelines)
        self._uses_central = app is not None and app.uses_central_state()

    # --- topology helpers ---------------------------------------------------------

    def _egress_pipeline_of_packet(self, packet: Packet) -> int:
        port = packet.meta.egress_port
        if port is None:
            raise ConfigError("packet reached the TM without an egress port")
        return self.config.pipeline_of_port(port)

    def state_pipeline_of_key(self, key: int) -> int:
        """Pipeline hosting the state partition for a key.

        Uses the app's placement policy when one is bound (the app defined
        the partitioning criteria), falling back to hash placement.
        """
        if self.app is not None and self.app.placement_policy is not None:
            return self.app.placement_policy.place(key)
        return stable_hash64(key) % self.config.pipelines

    def monitor_probes(self):
        """Adds the §2 bandwidth-tax view: the committed backlog on the
        loopback ports (loop depth in seconds) and each loop's series."""
        path = self.path
        probes = super().monitor_probes()
        probes[f"{path}.recirc_backlog_s"] = lambda now_s: sum(
            loop.backlog_s(now_s) for loop in self.recirc_ports
        )
        for index, loop in enumerate(self.recirc_ports):
            probes.update(
                loop.monitor_probes(label=f"{path}.recirc{index}")
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

    def _make_egress_event(
        self,
        packet: Packet,
        pipeline: int,
        deliver: float,
        run_central: bool = False,
    ):
        def event() -> None:
            self._egress_service(packet, pipeline, deliver, run_central)

        return event

    def _make_egress_burst_event(self, deliveries):
        def event() -> None:
            self._sim.events_coalesced += len(deliveries) - 1
            for copy, pipeline, deliver in deliveries:
                self._egress_service(copy, pipeline, deliver, False)

        return event

    # --- ingress ------------------------------------------------------------------

    def _ingress_service(self, packet: Packet, ready: float) -> None:
        port = packet.meta.ingress_port
        if port is None:
            raise ConfigError("arriving packet has no ingress port")
        pipeline = self.ingress[self.config.pipeline_of_port(port)]
        if self.trace is not None:
            self._emit(
                Category.PACKET,
                "packet.ingress",
                ready,
                packet,
                port=port,
                pipeline=pipeline.index,
                recirculations=packet.meta.recirculations,
            )

        app = self.app
        hook = None
        enforce = False
        runs_central_here = False
        if app is not None and not packet.meta.dropped:
            if (
                self._uses_central
                and self.config.state_mode is StateMode.RECIRCULATE
                and not packet.meta.central_done
                and app.claims(packet)
            ):
                state_pipe = self.state_pipeline_of_key(app.placement_key(packet))
                if pipeline.index == state_pipe:
                    hook = self._central_hook
                    enforce = True
                    runs_central_here = True
                else:
                    # Wrong pipeline: one plain ingress pass, then loop
                    # around through the state pipeline's recirc port.
                    record = pipeline.service(packet, ready, self._ingress_hook)
                    if self.spans is not None:
                        self._span_service(packet, record, pipeline)
                    decision = record.decision
                    if decision.verdict is Verdict.DROP:
                        self._drop(
                            packet,
                            record.exit_time,
                            decision.drop_reason or "dropped",
                        )
                        return
                    self._recirculate_to(packet, state_pipe, record.exit_time)
                    return
            else:
                hook = self._ingress_hook

        record = pipeline.service(packet, ready, hook, enforce_width=enforce)
        if self.spans is not None:
            self._span_service(packet, record, pipeline)
        if runs_central_here:
            packet.meta.central_done = True
        if self._settle(packet, record.decision, record.exit_time, "ingress"):
            self._to_tm(packet, record.exit_time, "ingress")

    # --- egress -------------------------------------------------------------------

    def _egress_service(
        self, packet: Packet, pipeline_index: int, ready: float, run_central: bool
    ) -> None:
        pipeline = self.egress[pipeline_index]
        packet.meta.egress_pipeline = pipeline_index
        # Only a pinned-state packet runs the central hook here, and
        # pinning needs an app, so ``run_central`` implies one.
        hook = self._central_hook if run_central else self._egress_hook
        record = pipeline.service(packet, ready, hook, enforce_width=run_central)
        if self.spans is not None:
            self._span_service(packet, record, pipeline, "tm")
        self.tm.release(packet, now=record.exit_time)
        if run_central:
            packet.meta.central_done = True
        exit_time = record.exit_time
        if not self._settle(packet, record.decision, exit_time, "egress"):
            return
        port = packet.meta.egress_port
        if port is None:
            self._drop(packet, exit_time, "no_route")
        elif port not in pipeline.attached_ports:
            # The TM routed by egress port, so this only happens for
            # pinned-state packets whose destination lives elsewhere.
            self._recirculate_to(packet, pipeline_index, exit_time)
        else:
            self._transmit(packet, exit_time)

    def _delivery_args(self, packet: Packet, port: int, departure: float) -> dict:
        return {
            "port": port,
            "departure_s": departure,
            "recirculations": packet.meta.recirculations,
        }

    # --- the section 2 workarounds ------------------------------------------------

    def _stamp_emission(self, emission: Packet, packet: Packet, station: str) -> None:
        """Emissions already carry their result: they skip the state hook."""
        meta = emission.meta
        if station == "egress":
            meta.egress_pipeline = packet.meta.egress_pipeline
        else:
            meta.ingress_port = packet.meta.ingress_port
        meta.central_done = True

    def _steer(self, packet: Packet, ready: float, station: str) -> bool:
        """Egress-born emissions loop back; pinned state goes to its pipeline."""
        meta = packet.meta
        if station == "egress":
            # Emissions born in an egress pipeline cannot re-enter the TM
            # directly; they must loop around (Figure 2's restriction).
            source_pipe = meta.egress_pipeline
            if meta.egress_ports:
                # Multicast needs the TM's replication engine: always loop.
                if source_pipe is None:
                    raise ConfigError("egress emission without a pipeline")
                self._recirculate_to(packet, source_pipe, ready)
            elif meta.egress_port is None:
                raise ConfigError("egress emission without an egress port")
            elif source_pipe is not None and self.config.pipeline_of_port(
                meta.egress_port
            ) != source_pipe:
                self._recirculate_to(packet, source_pipe, ready)
            else:
                # Destination is attached to this very pipeline: short
                # path to TX.
                self._transmit(packet, ready)
            return True
        if (
            meta.egress_ports
            or not self._uses_central
            or self.config.state_mode is not StateMode.EGRESS_PIN
            or meta.central_done
            or not self.app.claims(packet)
        ):
            return False
        # Steer to the state pipeline regardless of destination port.
        state_pipe = self.state_pipeline_of_key(self.app.placement_key(packet))
        admitted = self.tm.admit(packet, ready, pipeline=state_pipe)
        if admitted is None:
            self._drop(packet, ready)
            return True
        _, deliver = admitted
        if self.spans is not None and meta.span is not None:
            self.spans.record(
                meta.span, packet.packet_id, self.name, "tm", ready, deliver
            )
        self._sim.at(
            deliver, self._make_egress_event(packet, state_pipe, deliver, True)
        )
        return True

    def _recirculate(self, packet: Packet, ready: float, station: str) -> None:
        """A RECIRCULATE verdict loops to the key's state pipeline from
        ingress, and back to its own pipeline from egress."""
        if station == "egress":
            pipeline = packet.meta.egress_pipeline
        else:
            pipeline = self.state_pipeline_of_key(self.app.placement_key(packet))
        self._recirculate_to(packet, pipeline, ready)

    def _recirculate_to(self, packet: Packet, pipeline: int, ready: float) -> None:
        """Route a packet to ``pipeline``'s ingress via TM + loopback port."""
        if not self.config.allow_recirculation:
            self._result.unreachable_emissions += 1
            packet.meta.drop_reason = "recirculation_disabled"
            self._result.dropped.append(packet)
            self.counter("unreachable").add()
            if self.trace is not None:
                self._emit(
                    Category.ADMISSION,
                    "packet.dropped",
                    ready,
                    packet,
                    severity=Severity.ERROR,
                    reason="recirculation_disabled",
                )
            return
        admitted = self.tm.admit(packet, ready, pipeline=pipeline)
        if admitted is None:
            self._drop(packet, ready)
            return
        _, deliver = admitted
        spans = self.spans
        span = packet.meta.span if spans is not None else None
        if span is not None:
            spans.record(span, packet.packet_id, self.name, "tm", ready, deliver)
        egress = self.egress[pipeline]
        record = egress.service(packet, deliver, None)
        if spans is not None:
            self._span_service(packet, record, egress, "tm")
        self.tm.release(packet, now=record.exit_time)
        loop = self.recirc_ports[pipeline]
        re_arrival = loop.transmit(packet, record.exit_time)
        if span is not None:
            spans.record(
                span,
                packet.packet_id,
                self.name,
                "egress_serial",
                record.exit_time,
                re_arrival,
            )
        packet.meta.recirculations += 1
        self._result.recirculated_packets += 1
        self._result.recirculated_wire_bytes += packet.wire_bytes
        self.counter("recirculations").add()
        if self.trace is not None:
            self._emit(
                Category.RECIRC,
                "packet.recirculated",
                ready,
                packet,
                pipeline=pipeline,
                pass_number=packet.meta.recirculations,
                re_arrival_s=re_arrival,
                wire_bytes=packet.wire_bytes,
            )
        # Re-enter through the loopback: same pipeline's ingress.
        packet.meta.ingress_port = self.config.ports_of_pipeline(pipeline)[0]
        self._sim.at(re_arrival, self._make_ingress_event(packet, re_arrival))
