"""Seeded traffic generators for the stateful workloads.

Two shapes, mirroring the coflow workloads:

* :func:`build_single` — single-switch streams paced by
  :class:`~repro.net.traffic.DeterministicSource` across four source
  ports, with replies leaving on a fixed result port.  Key/flow draws
  are zipf-skewed (``skew`` is the zipf exponent — the campaign sweeps
  it), so access concentration is a first-class experimental axis.
* :func:`build_stateful_workload` — the fabric variant, registered
  under ``stateful-<name>`` in :func:`repro.fabric.workloads.build_workload`:
  client hosts stream requests toward a server host, the first-hop leaf
  claims them, and the returned workload carries an ``app_factory`` that
  instantiates this package's apps on every switch (sharing one
  replicated cache object fabric-wide).

Ground truth for scoring (which sources *are* attackers, the true heavy
keys) rides on the stream/factory objects — it is generator knowledge,
never visible to the data plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..errors import ConfigError
from ..net.headers import OP_DATA, OP_GET, OP_PUT
from ..net.packet import Packet
from ..net.traffic import DeterministicSource, make_coflow_packet, merge_sources
from ..sim.rng import make_rng, stable_hash64
from .apps import (
    OP_ACK,
    OP_FIN,
    OP_SYN,
    HeavyHitterApp,
    KeyCacheApp,
    StatefulApp,
    SynFloodApp,
    TokenBucketApp,
)
from .replicated import ReplicatedObject

__all__ = [
    "FABRIC_STATEFUL_WORKLOADS",
    "STATEFUL_WORKLOADS",
    "SingleStream",
    "build_single",
    "build_stateful_workload",
]

STATEFUL_WORKLOADS = (
    "tokenbucket",
    "synflood",
    "heavyhitter",
    "keycache",
)
FABRIC_STATEFUL_WORKLOADS = tuple(f"stateful-{w}" for w in STATEFUL_WORKLOADS)

#: Single-switch port plan: four source ports feeding one result port.
_SOURCE_PORTS = (0, 1, 2, 3)
_RESULT_PORT = 6
_STATEFUL_COFLOW = 0x5AFE

#: Fraction of sources the SYN-flood generator turns into attackers.
_ATTACK_FRACTION = 0.25
#: Heavy-hitter promotion threshold and sketch shape.
_HH_ROWS = 3
_HH_THRESHOLD = 12
_HH_TABLE_CAPACITY = 32
#: Token bucket: burst capacity (tokens) and per-flow refill as a
#: fraction of the fair-share packet rate (aggregate pps / flows), so a
#: zipf-hot flow offers several times its refill and gets limited while
#: the tail stays under budget.
_TB_CAPACITY = 16.0
_TB_REFILL_FRACTION = 0.5

#: A paced ``(time, packet)`` stream, time-ordered.
Arrivals = Iterator[tuple[float, Packet]]


@dataclass
class SingleStream:
    """One single-switch stateful run: the app, its stream, its truth.

    ``arrivals`` must be consumed *after* the switch is constructed — the
    generator groups multi-key packets by the app's bound placement so
    every key in a packet lands on the partition that owns its state
    (the same contract as the kv-cache app's partition-local batches).
    """

    workload: str
    app: StatefulApp
    truth: dict = field(default_factory=dict)
    _make: Callable[[float], Arrivals] = None  # type: ignore

    def arrivals(self, port_speed_bps: float) -> Arrivals:
        """The paced ``(time, packet)`` stream, built on the first ``next()``.

        Lazy so a switch run builds the packets inside its collector
        pause, and streamed so the run does not pin spent requests.
        """
        yield from self._make(port_speed_bps)


#: Zipf exponent of :func:`build_single`'s key and flow draws unless a
#: run sets one.
DEFAULT_SKEW = 1.2

#: Zipf exponent of the key draws of the ``stateful-*`` fabric
#: workloads in :data:`FABRIC_ZIPF_WORKLOADS`.  It is fixed: a fabric
#: run records it and takes no other value.
FABRIC_SKEW = 1.3

#: The fabric workloads that draw zipf keys; the others draw none.
FABRIC_ZIPF_WORKLOADS = ("heavyhitter", "keycache")


def _zipf_key(rng, skew: float, space: int) -> int:
    return (int(rng.zipf(skew)) - 1) % space


def _sample_wire_bytes(elements_per_packet: int) -> int:
    sample = make_coflow_packet(
        _STATEFUL_COFLOW, 0, 0, [(0, 0)] * max(1, elements_per_packet)
    )
    return sample.wire_bytes


def _paced(per_port: dict[int, list[Packet]], link_bps: float) -> Arrivals:
    sources = [
        DeterministicSource(port, link_bps, per_port[port])
        for port in sorted(per_port)
        if per_port[port]
    ]
    return merge_sources(sources)


def _aggregate_pps(link_bps: float, wire_bytes: int) -> float:
    return len(_SOURCE_PORTS) * link_bps / (wire_bytes * 8)


def build_single(
    workload: str,
    *,
    flows: int = 64,
    skew: float = DEFAULT_SKEW,
    packets: int = 400,
    seed: int = 0,
    elements_per_packet: int = 1,
    port_speed_bps: float,
) -> SingleStream:
    """Build one single-switch stateful workload (app + paced stream)."""
    if workload not in STATEFUL_WORKLOADS:
        raise ConfigError(
            f"unknown stateful workload {workload!r}; choose from "
            f"{', '.join(STATEFUL_WORKLOADS)}"
        )
    if flows < 1:
        raise ConfigError(f"flows must be >= 1, got {flows}")
    if packets < 1:
        raise ConfigError(f"packets must be >= 1, got {packets}")
    if not 1.0 < skew < math.inf:  # also rejects NaN
        raise ConfigError(f"zipf skew must be > 1.0 and finite, got {skew}")
    builder = {
        "tokenbucket": _single_tokenbucket,
        "synflood": _single_synflood,
        "heavyhitter": _single_heavyhitter,
        "keycache": _single_keycache,
    }[workload]
    return builder(flows, skew, packets, seed, elements_per_packet, port_speed_bps)


def _round_robin_ports(packets: list[Packet]) -> dict[int, list[Packet]]:
    per_port: dict[int, list[Packet]] = {p: [] for p in _SOURCE_PORTS}
    for index, packet in enumerate(packets):
        per_port[_SOURCE_PORTS[index % len(_SOURCE_PORTS)]].append(packet)
    return per_port


def _single_tokenbucket(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    wire = _sample_wire_bytes(1)
    pps = _aggregate_pps(port_speed_bps, wire)
    app = TokenBucketApp(
        flows=flows,
        lanes=len(_SOURCE_PORTS),
        capacity=_TB_CAPACITY,
        refill_per_s=_TB_REFILL_FRACTION * pps / flows,
        reconcile_period_s=32.0 / pps,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-tokenbucket/{seed}") % (2**32))

    def make(link_bps: float) -> Arrivals:
        stream = []
        for i in range(packets):
            flow = _zipf_key(rng, skew, flows)
            stream.append(
                make_coflow_packet(
                    _STATEFUL_COFLOW, flow_id=flow, seq=i, elements=[(flow, 1)]
                )
            )
        return _paced(_round_robin_ports(stream), link_bps)

    return SingleStream("tokenbucket", app, {"offered": packets}, make)


def _single_synflood(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    sources = flows
    rng = make_rng(stable_hash64(f"stateful-synflood/{seed}") % (2**32))
    attackers = set(
        int(i)
        for i in rng.choice(
            sources, size=max(1, int(sources * _ATTACK_FRACTION)),
            replace=False,
        )
    )
    threshold = 3
    app = SynFloodApp(
        sources=sources, threshold=threshold, result_port=_RESULT_PORT
    )
    stream: list[Packet] = []
    syn_sent: dict[int, int] = {}
    seq = 0
    cycle = (OP_SYN, OP_ACK, OP_FIN)
    while len(stream) < packets:
        source = _zipf_key(rng, skew, sources)
        if source in attackers:
            # Flood: SYNs with no completing handshake.
            opcodes = (OP_SYN, OP_SYN, OP_SYN)
        else:
            opcodes = cycle
        for opcode in opcodes:
            if opcode == OP_SYN and source in attackers:
                syn_sent[source] = syn_sent.get(source, 0) + 1
            stream.append(
                make_coflow_packet(
                    _STATEFUL_COFLOW,
                    flow_id=source,
                    seq=seq,
                    elements=[(source, 0)],
                    opcode=opcode,
                )
            )
            seq += 1
    for extra in stream[packets:]:
        # Keep the SYN tally consistent with the truncated stream.
        header = extra.header("coflow")
        if header["opcode"] == OP_SYN and header["flow_id"] in attackers:
            syn_sent[header["flow_id"]] -= 1
    del stream[packets:]
    # Ground truth is the *detectable* attackers: those whose flood
    # actually crossed the half-open threshold inside this stream.  A
    # planted attacker the zipf draw never scheduled is indistinguishable
    # from benign and would only deflate the detection rate spuriously.
    truth = {
        "attackers": sorted(
            s for s, count in syn_sent.items() if count > threshold
        ),
        "sources": sources,
    }

    def make(link_bps: float) -> Arrivals:
        return _paced(_round_robin_ports(stream), link_bps)

    return SingleStream("synflood", app, truth, make)


def _single_heavyhitter(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    key_space = flows
    app = HeavyHitterApp(
        rows=_HH_ROWS,
        width=max(8, key_space),
        threshold=_HH_THRESHOLD,
        table_capacity=_HH_TABLE_CAPACITY,
        elements_per_packet=elements_per_packet,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-heavyhitter/{seed}") % (2**32))
    keys = [
        _zipf_key(rng, skew, key_space)
        for _ in range(packets * elements_per_packet)
    ]
    counts: dict[int, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    truth = {
        "counts": counts,
        "heavy": sorted(k for k, c in counts.items() if c >= _HH_THRESHOLD),
    }

    def make(link_bps: float) -> Arrivals:
        # Partition-local batches: every key in a packet must live on the
        # placement partition that owns its sketch rows, so group the key
        # stream by the app's bound placement before packing.
        buckets: dict[int, list[int]] = {}
        batches: list[list[int]] = []
        for key in keys:
            partition = app.partition_of_key(key)
            bucket = buckets.setdefault(partition, [])
            bucket.append(key)
            if len(bucket) == elements_per_packet:
                batches.append(bucket[:])
                bucket.clear()
        for partition in sorted(buckets):
            if buckets[partition]:
                batches.append(buckets[partition])
        stream = [
            make_coflow_packet(
                _STATEFUL_COFLOW,
                flow_id=batch[0],
                seq=i,
                elements=[(key, 1) for key in batch],
            )
            for i, batch in enumerate(batches)
        ]
        return _paced(_round_robin_ports(stream), link_bps)

    return SingleStream("heavyhitter", app, truth, make)


def _single_keycache(
    flows, skew, packets, seed, elements_per_packet, port_speed_bps
) -> SingleStream:
    key_space = flows
    shared = ReplicatedObject("keycache", key_space, replicas=1, mode="lww")
    wire = _sample_wire_bytes(1)
    pps = _aggregate_pps(port_speed_bps, wire)
    app = KeyCacheApp(
        shared=shared,
        replica=0,
        merge_period_s=64.0 / pps,
        result_port=_RESULT_PORT,
    )
    rng = make_rng(stable_hash64(f"stateful-keycache/{seed}") % (2**32))

    def make(link_bps: float) -> Arrivals:
        stream: list[Packet] = []
        for i in range(packets):
            key = _zipf_key(rng, skew, key_space)
            # One write in eight keeps the cache warm under churn.
            put = i % 8 == 0
            stream.append(
                make_coflow_packet(
                    _STATEFUL_COFLOW,
                    flow_id=key,
                    seq=i,
                    elements=[(key, i + 1 if put else 0)],
                    opcode=OP_PUT if put else OP_GET,
                )
            )
        return _paced(_round_robin_ports(stream), link_bps)

    return SingleStream("keycache", app, {"key_space": key_space}, make)


# --- fabric variants --------------------------------------------------------------


class StatefulAppFactory:
    """Per-switch app construction for the fabric runner.

    Callable ``factory(switch_name) -> SwitchApp``; remembers every
    instance it built (``instances``) so the stateful runner can harvest
    app counters after the run, and carries the generator's ground truth
    (``truth``).  Key-cache factories share one fabric-wide
    :class:`~repro.stateful.replicated.ReplicatedObject` across the
    switch replicas they create.
    """

    def __init__(self, build: Callable[[str], StatefulApp], truth: dict):
        self._build = build
        self.truth = truth
        self.instances: dict[str, StatefulApp] = {}

    def __call__(self, switch_name: str) -> StatefulApp:
        app = self._build(switch_name)
        self.instances[switch_name] = app
        return app


def build_stateful_workload(
    name: str,
    topology,
    *,
    coflows: int = 2,
    vector: int = 64,
    elements_per_packet: int = 1,
    link_bps: float,
    load: float = 1.0,
    seed: int = 0,
    coflow_base: int = 0,
):
    """Build a ``stateful-*`` fabric workload (dispatched from
    :func:`repro.fabric.workloads.build_workload`).

    Every host but the last streams ``vector`` request packets toward
    the last host (the server/store); the first-hop leaf's app instance
    claims and answers them.  ``expected`` stays empty — admission
    decisions (drops, cache misses) make exact terminal counts
    timing-dependent, so completion accounting is skipped and the
    stateful ledger carries the verdicts instead.
    """
    from ..fabric.workloads import FabricCoflowSpec, FabricWorkload, _timed

    short = name.removeprefix("stateful-")
    if short not in STATEFUL_WORKLOADS:
        raise ConfigError(
            f"unknown stateful fabric workload {name!r}; choose from "
            f"{', '.join(FABRIC_STATEFUL_WORKLOADS)}"
        )
    hosts = topology.host_ids
    if len(hosts) < 2:
        raise ConfigError("stateful fabric workloads need >= 2 hosts")
    server = hosts[-1]
    clients = hosts[:-1]
    key_space = max(16, len(clients) * 4)
    specs = []
    per_host: dict[int, list[Packet]] = {}
    for group in range(coflows):
        coflow_id = coflow_base + group + 1
        members = tuple(
            c for i, c in enumerate(clients) if i % coflows == group
        ) or (clients[0],)
        specs.append(
            FabricCoflowSpec(coflow_id, members, vector, aggregated=False)
        )
    truth: dict = {"server": server, "clients": list(clients)}
    attackers: set[int] = set()
    if short == "synflood":
        rng = make_rng(stable_hash64(f"{name}/{seed}/attackers") % (2**32))
        attackers = set(
            int(clients[int(i)])
            for i in rng.choice(
                len(clients),
                size=max(1, int(len(clients) * _ATTACK_FRACTION)),
                replace=False,
            )
        )
        truth["attackers"] = sorted(attackers)
    counts: dict[int, int] = {}
    for index, client in enumerate(clients):
        rng = make_rng(stable_hash64(f"{name}/{seed}/h{client}") % (2**32))
        coflow_id = coflow_base + (index % coflows) + 1
        stream: list[Packet] = []
        for seq in range(vector):
            if short == "tokenbucket":
                packet = make_coflow_packet(
                    coflow_id, flow_id=client, seq=seq,
                    elements=[(client, 1)],
                )
            elif short == "synflood":
                if client in attackers:
                    opcode = OP_SYN
                else:
                    opcode = (OP_SYN, OP_ACK, OP_FIN)[seq % 3]
                packet = make_coflow_packet(
                    coflow_id, flow_id=client, seq=seq,
                    elements=[(client, 0)], opcode=opcode,
                )
            elif short == "heavyhitter":
                key = _zipf_key(rng, FABRIC_SKEW, key_space)
                counts[key] = counts.get(key, 0) + 1
                packet = make_coflow_packet(
                    coflow_id, flow_id=client, seq=seq,
                    elements=[(key, 1)],
                )
            else:  # keycache
                key = _zipf_key(rng, FABRIC_SKEW, key_space)
                put = seq % 8 == 0
                packet = make_coflow_packet(
                    coflow_id, flow_id=client, seq=seq,
                    elements=[(key, seq + 1 if put else 0)],
                    opcode=OP_PUT if put else OP_GET,
                )
            ip = packet.header("ipv4")
            ip["src_ip"] = topology.hosts[client].ip
            ip["dst_ip"] = topology.hosts[server].ip
            packet.meta.egress_port = None
            stream.append(packet)
        per_host[client] = stream
    if short == "heavyhitter":
        threshold = max(2, _HH_THRESHOLD // 2)
        truth["counts"] = counts
        truth["heavy"] = sorted(
            k for k, c in counts.items() if c >= threshold
        )
        truth["threshold"] = threshold
    factory = _fabric_factory(short, topology, clients, truth, link_bps)
    arrivals = _timed(per_host, topology, link_bps, load)
    return FabricWorkload(
        name=name,
        kind="stateful",
        coflows=specs,
        arrivals=arrivals,
        expected={},
        app_factory=factory,
    )


def _fabric_factory(
    short: str, topology, clients, truth: dict, link_bps: float
) -> StatefulAppFactory:
    flows = max(clients) + 1 if clients else 1
    wire = _sample_wire_bytes(1)
    pps = len(clients) * link_bps / (wire * 8)
    if short == "tokenbucket":
        def build(switch_name: str) -> StatefulApp:
            return TokenBucketApp(
                flows=flows,
                lanes=4,
                capacity=_TB_CAPACITY,
                refill_per_s=_TB_REFILL_FRACTION * pps / flows,
                reconcile_period_s=32.0 / pps,
            )
        return StatefulAppFactory(build, truth)
    if short == "synflood":
        def build(switch_name: str) -> StatefulApp:
            return SynFloodApp(sources=flows, threshold=3)
        return StatefulAppFactory(build, truth)
    if short == "heavyhitter":
        key_space = max(16, len(clients) * 4)
        def build(switch_name: str) -> StatefulApp:
            return HeavyHitterApp(
                rows=_HH_ROWS,
                width=max(8, key_space),
                threshold=truth.get("threshold", _HH_THRESHOLD),
                table_capacity=_HH_TABLE_CAPACITY,
            )
        return StatefulAppFactory(build, truth)
    # keycache: one replica per switch over one shared lww object.
    key_space = max(16, len(clients) * 4)
    switch_names = sorted(topology.switch_names)
    shared = ReplicatedObject(
        "keycache", key_space, replicas=len(switch_names), mode="lww"
    )
    ctrl = {"next_merge_s": 64.0 / pps}
    factory_truth = dict(truth)
    factory_truth["shared"] = shared

    def build(switch_name: str) -> StatefulApp:
        return KeyCacheApp(
            shared=shared,
            replica=switch_names.index(switch_name),
            merge_period_s=64.0 / pps,
            ctrl=ctrl,
        )

    return StatefulAppFactory(build, factory_truth)
