"""Pipelines: the structural and timing heart of both switch models.

Structurally, a pipeline is a parser, a fixed ladder of stages (each with
match-action units, table memory, and register state), and a deparser.

For timing, a pipeline is a FIFO server that retires **one packet per
cycle**: a packet that becomes ready at time *t* starts service at
``max(t, server_free)``, occupies the server for one cycle, and exits after
the pipeline's fill latency (parser + stages).  This queueing abstraction
is exact for deterministic per-cycle service and keeps simulations of
billions-of-pps devices tractable in Python while preserving the paper's
architecture-level behaviour: back-pressure, pipeline saturation, and the
frequency/packet-rate coupling of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, SimulationError
from ..net.deparser import Deparser
from ..net.packet import Packet, consume_packet_id
from ..net.parser import ParseGraph, Parser
from ..net.phv import PHVLayout
from ..sim.component import Component
from ..tables.mat import MatchTable
from ..tables.memory import StageMemory
from ..tables.registers import RegisterArray
from ..arch.decision import Decision, Verdict


class Stage(Component):
    """One match-action stage: MAUs plus its memory pool."""

    def __init__(
        self,
        index: int,
        parent: Component,
        mau_count: int = 16,
        memory: StageMemory | None = None,
    ) -> None:
        super().__init__(f"stage{index}", parent)
        if mau_count < 1:
            raise ConfigError("stage needs at least one MAU")
        self.index = index
        self.mau_count = mau_count
        self.memory = memory or StageMemory()


#: Shared verdict for hookless services.  No caller mutates a plain
#: forwarding decision (emissions stay empty, verdict/reason are read
#: only), so one instance serves every pure-forwarding packet.
_FORWARD_DECISION = Decision(Verdict.FORWARD, [])


@dataclass(slots=True)
class ServiceRecord:
    """Timing of one packet's trip through a pipeline."""

    ready_time: float
    service_start: float
    exit_time: float
    decision: Decision

    @property
    def queueing_delay(self) -> float:
        return self.service_start - self.ready_time


class PipelineRuntimeContext:
    """The :class:`~repro.arch.app.PipelineContext` a hook receives.

    Wraps one pipeline; exposes only that pipeline's registers and tables.
    ``now`` is stamped by the pipeline at each service.
    """

    def __init__(self, pipeline: "Pipeline") -> None:
        self._pipeline = pipeline
        self.now = 0.0

    @property
    def pipeline_index(self) -> int:
        return self._pipeline.index

    @property
    def region(self) -> str:
        return self._pipeline.region

    @property
    def array_width(self) -> int:
        return self._pipeline.array_width

    @property
    def attached_ports(self) -> tuple[int, ...]:
        return self._pipeline.attached_ports

    def register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        return self._pipeline.get_register(name, size, width_bits)

    def table(self, name: str) -> MatchTable:
        return self._pipeline.get_table(name)


class Pipeline(Component):
    """A parser + stage ladder + deparser with per-cycle FIFO service.

    Attributes:
        index: Pipeline number within its region.
        region: ``"ingress"``, ``"central"``, or ``"egress"``.
        frequency_hz: Clock; the service rate is one packet per cycle.
        attached_ports: Ports wired to this pipeline (empty for central).
        array_width: Parallel lookups a stage supports (1 = scalar RMT).
    """

    def __init__(
        self,
        index: int,
        region: str,
        frequency_hz: float,
        parent: Component,
        stages: int = 12,
        maus_per_stage: int = 16,
        attached_ports: tuple[int, ...] = (),
        array_width: int = 1,
        parser_latency_cycles: int = 4,
        phv_layout: PHVLayout | None = None,
        parse_graph: ParseGraph | None = None,
    ) -> None:
        super().__init__(f"{region}{index}", parent)
        if frequency_hz <= 0:
            raise ConfigError("pipeline frequency must be positive")
        if stages < 1:
            raise ConfigError("pipeline needs at least one stage")
        if array_width < 1:
            raise ConfigError("array width must be >= 1")
        self.index = index
        self.region = region
        self.frequency_hz = frequency_hz
        self.attached_ports = attached_ports
        self.array_width = array_width
        self.parser_latency_cycles = parser_latency_cycles
        self.stages = [Stage(i, self, maus_per_stage) for i in range(stages)]
        graph = parse_graph or ParseGraph.standard_coflow_graph(
            max_elements=max(array_width, 16)
        )
        self.parser = Parser(graph, phv_layout, array_capable=True)
        self.deparser = Deparser()
        self._registers: dict[str, RegisterArray] = {}
        self._tables: dict[str, MatchTable] = {}
        self._free_at = 0.0
        self._busy_s = 0.0
        # Per-service timing constants; the frequency and stage ladder
        # are fixed at construction, so hoist the divisions out of the
        # service loop.
        self._cycle_s = 1.0 / frequency_hz
        self._latency_s = (parser_latency_cycles + stages) * self._cycle_s
        # Per-service stat handles, bound on first use so the stats
        # registry keeps the seed's creation order (packets and elements
        # are always created together; the histogram first appears when
        # an accepted packet reaches the delay observation).
        self._svc_counters = None
        self._delay_hist = None
        self.context = PipelineRuntimeContext(self)
        self.trace = None
        """Optional :class:`~repro.telemetry.recorder.TraceRecorder`; the
        owning switch wires it when telemetry is enabled."""

    # --- resources ---------------------------------------------------------------

    @property
    def cycle_s(self) -> float:
        return self._cycle_s

    @property
    def latency_s(self) -> float:
        """Fill latency: parser plus one cycle per stage."""
        return self._latency_s

    def get_register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        """Get or lazily create a register array local to this pipeline."""
        if name not in self._registers:
            self._registers[name] = RegisterArray(
                f"{self.path}.{name}", size, width_bits
            )
        register = self._registers[name]
        if register.size != size:
            raise ConfigError(
                f"register {name!r} exists with size {register.size}, "
                f"requested {size}"
            )
        return register

    def install_table(self, table: MatchTable) -> None:
        if table.name in self._tables:
            raise ConfigError(
                f"pipeline {self.path} already has table {table.name!r}"
            )
        self._tables[table.name] = table

    def get_table(self, name: str) -> MatchTable:
        if name not in self._tables:
            raise ConfigError(f"pipeline {self.path} has no table {name!r}")
        return self._tables[name]

    @property
    def registers(self) -> dict[str, RegisterArray]:
        return dict(self._registers)

    # --- timing + functional service ----------------------------------------------

    def service(
        self,
        packet: Packet,
        ready_time: float,
        hook,
        enforce_width: bool = False,
    ) -> ServiceRecord:
        """Run one packet through the pipeline.

        ``hook(ctx, packet, phv) -> Decision`` is the application logic for
        this region (or None for pure forwarding).  Functionally the packet
        is parsed, the hook runs, and modified fields are deparsed back.
        Timing-wise the packet occupies the server for exactly one cycle.

        The verdict and the parser's accounting come from
        :meth:`~repro.net.parser.Parser.accepts`, and the hook gets a
        :meth:`~repro.net.parser.Parser.lazy_phv` that only fills its
        containers if touched.  Without a hook nothing can read or write
        a PHV, so none is built.  A wired trace recorder records the
        service and changes nothing else.

        ``enforce_width`` is set by the switch when the hook performs
        *stateful* per-element processing: a scalar pipeline physically
        cannot feed k elements of one packet through a stateful register in
        one pass (section 2, issue 2), so such a packet reaching a stateful
        hook is a planning bug and raises.
        """
        if ready_time < 0:
            raise SimulationError(f"negative ready time {ready_time}")
        start = max(ready_time, self._free_at)
        cycle_s = self._cycle_s
        self._free_at = start + cycle_s
        self._busy_s += cycle_s
        exit_time = start + self._latency_s

        accepted = self.parser.accepts(packet)
        counters = self._svc_counters
        if counters is None:
            counters = self._svc_counters = (
                self.counter("packets"),
                self.counter("elements"),
            )
        counters[0].add()
        counters[1].add(packet.element_count)
        if not accepted:
            self.counter("parse_rejects").add()
            decision = Decision.drop("parse_reject")
            record = ServiceRecord(ready_time, start, exit_time, decision)
            if self.trace is not None:
                self._trace_service(packet, record)
            return record

        if enforce_width and packet.element_count > self.array_width:
            raise SimulationError(
                f"{self.path}: packet with {packet.element_count} elements "
                f"reached a stateful hook on a width-{self.array_width} "
                f"pipeline; the workload must be restructured to scalar "
                f"packets on this target"
            )

        if hook is None:
            # Pure forwarding leaves the packet as parsed: count the
            # deparse and draw the id its rebuild would, as a hook that
            # left its PHV clean does below.
            decision = _FORWARD_DECISION
            consume_packet_id()
            self.deparser.packets_deparsed += 1
        else:
            phv = self.parser.lazy_phv(packet)
            self.context.now = start
            decision = hook(self.context, packet, phv)
            decision.validate()
            if phv._dirty:
                deparsed = self.deparser.deparse(phv, packet)
                # Propagate in-place so the caller's reference stays valid.
                packet.headers = deparsed.headers
                packet.payload = deparsed.payload
            else:
                # Every hook-facing PHV mutator sets ``_dirty``; a clean
                # PHV deparses to a packet equal to the original, so skip
                # the rebuild while keeping the id draw and the deparse
                # count identical to the rebuilt path.
                consume_packet_id()
                self.deparser.packets_deparsed += 1
            if phv.get_meta("drop"):
                decision = Decision.drop(str(phv.get_meta("drop_reason")))
            if decision.verdict is Verdict.DROP:
                self.counter("drops").add()
        record = ServiceRecord(ready_time, start, exit_time, decision)
        hist = self._delay_hist
        if hist is None:
            hist = self._delay_hist = self.histogram("queueing_delay_s")
        hist.observe(start - ready_time)
        if self.trace is not None:
            self._trace_service(packet, record)
        return record

    def _trace_service(self, packet: Packet, record: ServiceRecord) -> None:
        """Record one service as a span event, plus per-stage detail when
        the recorder opted into the verbose ``STAGE`` category."""
        from ..telemetry.events import Category, Severity

        # ready_s/exit_s/parse_s are the exact floats of this pass's
        # queue-enter, pipeline-exit, and parser-phase boundaries, passed
        # through verbatim (start + duration need not equal exit_s
        # bit-for-bit under IEEE rounding).
        self.trace.emit(
            Category.PIPELINE,
            "pipeline.service",
            record.service_start,
            component=self.path,
            packet_id=packet.packet_id,
            duration_s=record.exit_time - record.service_start,
            region=self.region,
            verdict=record.decision.verdict.name,
            queueing_delay_s=record.queueing_delay,
            elements=packet.element_count,
            ready_s=record.ready_time,
            exit_s=record.exit_time,
            parse_s=self.parser_latency_cycles * self.cycle_s,
            stages=len(self.stages),
        )
        if self.trace.wants(Category.STAGE, Severity.DEBUG):
            enter = record.service_start + (
                self.parser_latency_cycles * self.cycle_s
            )
            for stage in self.stages:
                self.trace.emit(
                    Category.STAGE,
                    "stage.execute",
                    enter,
                    component=f"{self.path}.{stage.name}",
                    severity=Severity.DEBUG,
                    packet_id=packet.packet_id,
                    duration_s=self.cycle_s,
                    maus=stage.mau_count,
                )
                enter += self.cycle_s

    def utilization(self, horizon_s: float) -> float:
        """Fraction of the horizon this pipeline spent serving packets."""
        if horizon_s <= 0:
            raise ConfigError("horizon must be positive")
        return min(1.0, self._busy_s / horizon_s)

    def backlog_s(self, now_s: float) -> float:
        """Committed service time beyond ``now_s``: the FIFO queue depth,
        in seconds, that the next arriving packet would wait."""
        return max(0.0, self._free_at - now_s)

    def monitor_probes(self):
        """Resource-monitor series for this pipeline.

        Registers and tables are created lazily as the app touches them,
        so the state/MAT probes iterate the live dicts at sample time —
        the *series names* stay fixed while the underlying set grows.
        """
        path = self.path
        return {
            f"{path}.utilization": lambda now_s: (
                min(1.0, self._busy_s / now_s) if now_s > 0 else 0.0
            ),
            f"{path}.backlog_s": self.backlog_s,
            f"{path}.state_accesses": lambda now_s: float(
                sum(r.access_count for r in self._registers.values())
            ),
            f"{path}.mat_lookups": lambda now_s: float(
                sum(t.access_count for t in self._tables.values())
            ),
            f"{path}.mat_entries": lambda now_s: float(
                sum(len(t) for t in self._tables.values())
            ),
            f"{path}.mem_blocks_claimed": lambda now_s: float(
                sum(s.memory.claimed_total() for s in self.stages)
            ),
        }

    @property
    def busy_seconds(self) -> float:
        return self._busy_s

    @property
    def next_free(self) -> float:
        return self._free_at
