"""The four stateful workload apps, runnable on both switch targets.

Each app exercises one primitive from this package on the central
(stateful) pipeline path:

* :class:`TokenBucketApp` — per-flow rate limiting over
  :class:`~repro.stateful.scr.ScrTokenBucket` (state-compute
  replication: per-ingress-lane budget shares + periodic reconcile).
* :class:`SynFloodApp` — half-open connection tracking as an
  :class:`~repro.stateful.efsm.EfsmSpec`, flagging sources whose
  ``half_open`` register crosses a threshold and dropping their SYNs.
* :class:`HeavyHitterApp` — count-min sketch rows in pipeline registers
  with threshold promotion into an exact match table (top-k heavy
  hitters).
* :class:`KeyCacheApp` — in-network key cache over a last-writer-wins
  :class:`~repro.stateful.replicated.ReplicatedObject`, write-through
  PUTs invalidating peer replicas at the next merge round.

All four follow the fabric-app conventions: :meth:`claims` gates the
stateful path by opcode so transit traffic takes plain forwarding,
requests are consumed and re-emitted with a terminal opcode
(``OP_RESULT``/``OP_REPLY``), and emissions inherit ``origin_time`` so
serve mode measures end-to-end latency.  Replies are addressed by
``dst_ip`` in a fabric or by a fixed ``result_port`` on a single switch.
"""

from __future__ import annotations

from ..arch.app import PipelineContext, SwitchApp
from ..arch.decision import Decision
from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_GET, OP_PUT, OP_REPLY, OP_RESULT
from ..net.packet import Packet
from ..net.phv import PHV
from ..net.traffic import make_coflow_packet
from ..sim.rng import stable_hash64
from ..tables.mat import MatchKind, MatchTable
from .efsm import Action, EfsmEngine, EfsmSpec, Guard, Transition
from .replicated import ReplicatedObject
from .scr import ScrTokenBucket

__all__ = [
    "OP_ACK",
    "OP_FIN",
    "OP_SYN",
    "HeavyHitterApp",
    "KeyCacheApp",
    "SYN_FLOOD_EFSM",
    "SynFloodApp",
    "TokenBucketApp",
]

# TCP-ish control opcodes for the SYN-flood EFSM, in the coflow header's
# 8-bit opcode field above the built-in OP_* range (net/headers.py).
OP_SYN = 6
OP_ACK = 7
OP_FIN = 8


class StatefulApp(SwitchApp):
    """Shared plumbing: opcode-gated claims and reply addressing."""

    #: Opcodes this app's stateful path consumes.
    CLAIM_OPCODES: tuple[int, ...] = (OP_DATA,)

    def __init__(
        self,
        name: str,
        elements_per_packet: int = 1,
        result_port: int | None = None,
    ) -> None:
        super().__init__(name, elements_per_packet)
        self.result_port = result_port
        self.results_emitted = 0

    def uses_central_state(self) -> bool:
        return True

    def claims(self, packet: Packet) -> bool:
        if not packet.has_header("coflow"):
            return False
        return packet.header("coflow")["opcode"] in self.CLAIM_OPCODES

    def _emit(
        self,
        packet: Packet,
        opcode: int,
        elements: list[tuple[int, int]],
        dst_ip: int | None = None,
    ) -> Packet:
        """Build one terminal-opcode emission for a consumed request.

        ``dst_ip=None`` keeps the request's own destination (fabric
        routing continues toward the original target); single-switch
        instances address by ``result_port`` instead.
        """
        header = packet.header("coflow")
        if dst_ip is None:
            dst_ip = (
                packet.header("ipv4")["dst_ip"]
                if packet.has_header("ipv4")
                else 0
            )
        out = make_coflow_packet(
            header["coflow_id"],
            flow_id=header["flow_id"],
            seq=self.results_emitted,
            elements=elements,
            opcode=opcode,
            worker_id=header["worker_id"],
            dst_ip=dst_ip if self.result_port is None else 0,
        )
        if self.result_port is not None:
            out.meta.egress_port = self.result_port
        if packet.meta.origin_time is not None:
            out.meta.origin_time = packet.meta.origin_time
        self.results_emitted += 1
        return out


class TokenBucketApp(StatefulApp):
    """Per-flow token-bucket rate limiting via state-compute replication."""

    CLAIM_OPCODES = (OP_DATA,)

    def __init__(
        self,
        flows: int,
        lanes: int,
        capacity: float,
        refill_per_s: float,
        reconcile_period_s: float,
        elements_per_packet: int = 1,
        result_port: int | None = None,
    ) -> None:
        super().__init__("tokenbucket", elements_per_packet, result_port)
        if reconcile_period_s <= 0:
            raise ConfigError("token bucket: reconcile period must be > 0")
        self.bucket = ScrTokenBucket(flows, lanes, capacity, refill_per_s)
        self.reconcile_period_s = reconcile_period_s
        self._next_reconcile_s = reconcile_period_s
        self.admitted = 0
        self.rate_limited = 0

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        if not self.claims(packet):
            return Decision.forward()
        if ctx.now >= self._next_reconcile_s:
            self.bucket.reconcile(ctx.now)
            self._next_reconcile_s += self.reconcile_period_s
        header = packet.header("coflow")
        flow = header["flow_id"] % self.bucket.flows
        lane = (packet.meta.ingress_port or 0) % self.bucket.lanes
        # Charge the lane's bucket access as a real register write so the
        # resource monitor sees the state traffic.
        tokens = ctx.register("tb_tokens", self.bucket.flows, width_bits=32)
        admitted = self.bucket.try_consume(lane, flow, 1.0, ctx.now)
        tokens.write(flow, int(self.bucket.lane_tokens(lane, flow)))
        if not admitted:
            self.rate_limited += 1
            return Decision.drop("rate_limited")
        self.admitted += 1
        elements = (
            [(e.key, e.value) for e in packet.payload]
            if packet.payload is not None
            else []
        )
        return Decision.consume(self._emit(packet, OP_RESULT, elements))


#: Half-open connection tracking, one machine per source.
SYN_FLOOD_EFSM = EfsmSpec(
    name="synflood",
    states=("IDLE", "PENDING", "OPEN"),
    initial="IDLE",
    events=("syn", "ack", "fin"),
    registers=(("half_open", 16), ("total_syn", 32)),
    transitions=(
        Transition(
            "IDLE", "syn", "PENDING",
            actions=(Action("half_open", "add", 1), Action("total_syn", "add", 1)),
        ),
        Transition(
            "PENDING", "syn", "PENDING",
            actions=(Action("half_open", "add", 1), Action("total_syn", "add", 1)),
        ),
        Transition(
            "PENDING", "ack", "OPEN",
            guard=Guard("half_open", "ge", 1),
            actions=(Action("half_open", "add", -1),),
        ),
        Transition("PENDING", "fin", "IDLE"),
        Transition(
            "OPEN", "syn", "PENDING",
            actions=(Action("half_open", "add", 1), Action("total_syn", "add", 1)),
        ),
        Transition("OPEN", "fin", "IDLE"),
    ),
)

_SYN_EVENTS = {OP_SYN: "syn", OP_ACK: "ack", OP_FIN: "fin"}


class SynFloodApp(StatefulApp):
    """SYN-flood detector: the half-open EFSM plus threshold mitigation."""

    CLAIM_OPCODES = (OP_SYN, OP_ACK, OP_FIN)

    def __init__(
        self,
        sources: int,
        threshold: int,
        result_port: int | None = None,
    ) -> None:
        super().__init__("synflood", 1, result_port)
        if threshold < 1:
            raise ConfigError("syn flood: threshold must be >= 1")
        self.engine = EfsmEngine(SYN_FLOOD_EFSM, sources)
        self.threshold = threshold
        self.mitigated = 0

    def placement_key(self, packet: Packet) -> int:
        # All of a source's events must meet the same per-partition EFSM
        # arrays, so place by source id, not by payload key.
        if packet.has_header("coflow"):
            return packet.header("coflow")["flow_id"]
        return 0

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        if not self.claims(packet):
            return Decision.forward()
        header = packet.header("coflow")
        source = header["flow_id"]
        event = _SYN_EVENTS[header["opcode"]]
        self.engine.step(ctx, source, event)
        half_open = self.engine.register_of(
            ctx.pipeline_index, source, "half_open"
        )
        if event == "syn" and half_open > self.threshold:
            self.mitigated += 1
            return Decision.drop("syn_flood")
        return Decision.consume(self._emit(packet, OP_RESULT, []))

    def flagged_sources(self) -> list[int]:
        """Sources whose half-open count ended above the threshold."""
        flagged = set()
        for partition, (_, regs) in self.engine.bound.items():
            half_open = regs["half_open"]
            for slot in range(self.engine.flows):
                if half_open.read(slot) > self.threshold:
                    flagged.add(slot)
        return sorted(flagged)


class HeavyHitterApp(StatefulApp):
    """Top-k heavy hitters: count-min rows + threshold promotion."""

    CLAIM_OPCODES = (OP_DATA,)

    def __init__(
        self,
        rows: int,
        width: int,
        threshold: int,
        table_capacity: int,
        elements_per_packet: int = 1,
        result_port: int | None = None,
    ) -> None:
        super().__init__("heavyhitter", elements_per_packet, result_port)
        if rows < 1 or width < 1:
            raise ConfigError("heavy hitter: rows and width must be >= 1")
        if threshold < 1:
            raise ConfigError("heavy hitter: threshold must be >= 1")
        self.rows = rows
        self.width = width
        self.threshold = threshold
        #: App-owned exact table holding promoted keys (control-plane
        #: install, data-plane lookups), the "threshold promotion" MAT.
        self.heavy = MatchTable(
            "heavy_keys", MatchKind.EXACT, 32, table_capacity
        )
        self.promotions = 0
        self.table_full_drops = 0
        self._promoted: set[int] = set()

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        if not self.claims(packet):
            return Decision.forward()
        sketch = [
            ctx.register(f"cms_row{i}", self.width, width_bits=32)
            for i in range(self.rows)
        ]
        assert packet.payload is not None
        for element in packet.payload:
            key = element.key
            estimate = min(
                sketch[i].add(
                    stable_hash64(f"hh/r{i}/{key}") % self.width, 1
                )
                for i in range(self.rows)
            )
            self.heavy.lookup(key)
            if estimate >= self.threshold and key not in self._promoted:
                if self.heavy.is_full:
                    self.table_full_drops += 1
                else:
                    self.heavy.install(key)
                    self.promotions += 1
                self._promoted.add(key)
        elements = [(e.key, e.value) for e in packet.payload]
        return Decision.consume(self._emit(packet, OP_RESULT, elements))

    def promoted_keys(self) -> list[int]:
        return sorted(
            entry.pattern.value for entry in self.heavy._entries
        )


class KeyCacheApp(StatefulApp):
    """In-network key cache over a replicated lww object.

    GETs answer from the local replica (``OP_REPLY`` back to the
    requester) when the slot holds a version, and fall through to the
    original destination (the store, ``OP_RESULT``) on a miss.  PUTs
    write the local replica and write through to the store; peer
    replicas serve stale values until the next merge round propagates
    the invalidating version.
    """

    CLAIM_OPCODES = (OP_GET, OP_PUT)

    def __init__(
        self,
        shared: ReplicatedObject,
        replica: int,
        merge_period_s: float,
        ctrl: dict | None = None,
        result_port: int | None = None,
    ) -> None:
        super().__init__("keycache", 1, result_port)
        if shared.mode != "lww":
            raise ConfigError("key cache requires an lww replicated object")
        if merge_period_s <= 0:
            raise ConfigError("key cache: merge period must be > 0")
        self.shared = shared
        self.replica = replica
        self.merge_period_s = merge_period_s
        #: Shared across every instance over the same object so merge
        #: rounds fire once per period fabric-wide, not once per switch.
        self.ctrl = ctrl if ctrl is not None else {"next_merge_s": merge_period_s}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        if not self.claims(packet):
            return Decision.forward()
        if ctx.now >= self.ctrl["next_merge_s"]:
            self.shared.merge_round()
            self.ctrl["next_merge_s"] += self.merge_period_s
        header = packet.header("coflow")
        payload = packet.payload
        assert payload is not None and len(payload) > 0
        key = payload.key_column[0] % self.shared.size
        # Charge the tag check as a register read on this pipeline.
        tags = ctx.register("cache_tags", self.shared.size, width_bits=32)
        tags.read(key)
        if header["opcode"] == OP_PUT:
            self.puts += 1
            put_value = payload.value_column[0]
            self.shared.update(self.replica, key, put_value)
            tags.write(key, self.shared.version(self.replica, key) & 0xFFFFFFFF)
            return Decision.consume(self._emit(packet, OP_RESULT, [(key, put_value)]))
        version = self.shared.version(self.replica, key)
        value = self.shared.read(self.replica, key)
        if version > 0:
            self.hits += 1
            reply_ip = (
                packet.header("ipv4")["src_ip"]
                if packet.has_header("ipv4")
                else 0
            )
            return Decision.consume(
                self._emit(packet, OP_REPLY, [(key, value)], dst_ip=reply_ip)
            )
        self.misses += 1
        return Decision.consume(self._emit(packet, OP_RESULT, [(key, 0)]))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
