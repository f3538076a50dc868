"""The run-to-completion switch (BMv2-class software dataplane).

Structure: one shared packet queue feeding a pool of cores over one
shared memory.  Each core "holds a packet in the switch until an
arbitrary length computation is completed" — all three application hooks
run in a single pass, state is globally reachable (no placement
constraints, no recirculation, no scalar restriction), and emissions go
straight to the TX ports.

The price is the service rate: a packet costs
:meth:`~repro.baselines.cost.InstructionCostModel.packet_cycles` cycles
of one core, so aggregate throughput is ``cores x clock / cost`` packets
per second — orders of magnitude under line rate for small packets, which
is the §1 tension the F0 benchmark measures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..arch.app import SwitchApp
from ..arch.decision import Decision, Verdict
from ..arch.port import TxPort
from ..arch.switch import SwitchRunResult
from ..errors import ConfigError
from ..net.packet import Packet
from ..net.parser import ParseGraph, Parser
from ..net.deparser import Deparser
from ..sim.component import Component
from ..tables.mat import MatchTable
from ..tables.registers import RegisterArray
from ..units import GBPS, GHZ
from .cost import InstructionCostModel


@dataclass(frozen=True)
class RtcConfig:
    """Design parameters of a run-to-completion switch."""

    num_ports: int = 8
    port_speed_bps: float = 100 * GBPS
    cores: int = 16
    clock_hz: float = 3.0 * GHZ
    queue_packets: int = 16384
    cost: InstructionCostModel = InstructionCostModel()

    def __post_init__(self) -> None:
        if self.num_ports < 1:
            raise ConfigError("switch needs at least one port")
        if self.cores < 1:
            raise ConfigError("need at least one core")
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        if self.queue_packets < 1:
            raise ConfigError("queue must hold at least one packet")

    @property
    def throughput_bps(self) -> float:
        return self.num_ports * self.port_speed_bps


class SharedMemoryContext:
    """The :class:`~repro.arch.app.PipelineContext` of a shared-memory
    target: one state namespace, every port reachable, unlimited arrays."""

    def __init__(self, switch: "RunToCompletionSwitch") -> None:
        self._switch = switch
        self.now = 0.0

    @property
    def pipeline_index(self) -> int:
        return 0  # one logical processor

    @property
    def region(self) -> str:
        return "shared"

    @property
    def array_width(self) -> int:
        return 1 << 16  # effectively unbounded: software loops

    @property
    def attached_ports(self) -> tuple[int, ...]:
        return tuple(range(self._switch.config.num_ports))

    def register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        return self._switch.get_register(name, size, width_bits)

    def table(self, name: str) -> MatchTable:
        return self._switch.get_table(name)


class RunToCompletionSwitch(Component):
    """Executable model of a BMv2-class run-to-completion dataplane."""

    def __init__(self, config: RtcConfig, app: SwitchApp | None = None) -> None:
        super().__init__("rtc")
        self.config = config
        self.app = app
        if app is not None:
            # One shared memory: a single state partition.
            app.bind_placement(1)
        self.parser = Parser(ParseGraph.standard_coflow_graph(max_elements=255))
        self.deparser = Deparser()
        self.tx_ports = [
            TxPort(p, config.port_speed_bps) for p in range(config.num_ports)
        ]
        self._registers: dict[str, RegisterArray] = {}
        self._tables: dict[str, MatchTable] = {}
        self._core_free = [0.0] * config.cores
        self._result = SwitchRunResult()
        self.busy_core_seconds = 0.0

    # --- shared state --------------------------------------------------------------

    def get_register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        if name not in self._registers:
            self._registers[name] = RegisterArray(f"rtc.{name}", size, width_bits)
        register = self._registers[name]
        if register.size != size:
            raise ConfigError(
                f"register {name!r} exists with size {register.size}, "
                f"requested {size}"
            )
        return register

    def install_table(self, table: MatchTable) -> None:
        if table.name in self._tables:
            raise ConfigError(f"table {table.name!r} already installed")
        self._tables[table.name] = table

    def get_table(self, name: str) -> MatchTable:
        if name not in self._tables:
            raise ConfigError(f"no table {name!r} installed")
        return self._tables[name]

    @property
    def registers(self) -> dict[str, RegisterArray]:
        return dict(self._registers)

    # --- run loop -------------------------------------------------------------------

    def run(self, timed_packets, until: float | None = None) -> SwitchRunResult:
        """Process a time-ordered iterable of ``(time, packet)``.

        Cores are assigned earliest-free-first; within the pool, packets
        start service in arrival order (one shared FIFO), which also
        defines the shared-memory mutation order.
        """
        pending_starts: list[float] = []  # service-start times not yet reached
        for time, packet in timed_packets:
            if until is not None and time > until:
                break
            while pending_starts and pending_starts[0] <= time:
                heapq.heappop(pending_starts)
            if len(pending_starts) >= self.config.queue_packets:
                packet.meta.drop_reason = "rtc_queue_full"
                self._result.dropped.append(packet)
                self.counter("queue_drops").add()
                continue
            start = self._serve(packet, time)
            if start > time:
                heapq.heappush(pending_starts, start)
        self._result.duration_s = max(self._core_free + [0.0])
        self._result.counters = self.stats.snapshot()
        return self._result

    def _serve(self, packet: Packet, arrival: float) -> float:
        """Process one packet; returns its service-start time."""
        core = min(range(self.config.cores), key=lambda c: self._core_free[c])
        start = max(arrival, self._core_free[core])

        result = self.parser.parse(packet)
        decision = Decision.forward()
        if result.accepted and self.app is not None:
            ctx = SharedMemoryContext(self)
            ctx.now = start
            for hook in (self.app.ingress, self.app.central, self.app.egress):
                decision = hook(ctx, packet, result.phv)
                decision.validate()
                if decision.verdict is not Verdict.FORWARD or decision.emissions:
                    break
        deparsed = self.deparser.deparse(result.phv, packet)
        packet.headers = deparsed.headers
        packet.payload = deparsed.payload

        cycles = self.config.cost.packet_cycles(packet, len(decision.emissions))
        service = cycles / self.config.clock_hz
        done = start + service
        self._core_free[core] = done
        self.busy_core_seconds += service
        self.counter("served").add()

        for emission in decision.emissions:
            emission.meta.arrival_time = packet.meta.arrival_time
            self._transmit_any(emission, done)

        if decision.verdict is Verdict.DROP:
            packet.meta.drop_reason = decision.drop_reason or "dropped"
            self._result.dropped.append(packet)
        elif decision.verdict is Verdict.CONSUME:
            self._result.consumed += 1
        elif decision.verdict is Verdict.RECIRCULATE:
            raise ConfigError(
                "run-to-completion programs never recirculate: keep "
                "computing instead"
            )
        else:
            self._transmit_any(packet, done)
        return start

    def _transmit_any(self, packet: Packet, ready: float) -> None:
        if packet.meta.egress_ports:
            for port in packet.meta.egress_ports:
                copy = packet.copy()
                copy.meta.arrival_time = packet.meta.arrival_time
                copy.meta.egress_port = port
                self.tx_ports[port].transmit(copy, ready)
                self._result.delivered.append(copy)
                self.counter("delivered").add()
            return
        port = packet.meta.egress_port
        if port is None:
            packet.meta.drop_reason = "no_route"
            self._result.dropped.append(packet)
            self.counter("no_route_drops").add()
            return
        self.tx_ports[port].transmit(packet, ready)
        self._result.delivered.append(packet)
        self.counter("delivered").add()

    # --- capacity queries -------------------------------------------------------------

    def sustained_pps(self, sample: Packet) -> float:
        """Aggregate service rate for packets shaped like ``sample``."""
        return self.config.cost.sustained_pps(
            self.config.cores, self.config.clock_hz, sample
        )

    def line_rate_pps(self, wire_packet_bytes: float = 84.0) -> float:
        """What line rate would require at the given minimum packet."""
        return self.config.throughput_bps / (wire_packet_bytes * 8)
