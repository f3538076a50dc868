"""Shared application plumbing: opcodes and workload materialization."""

from __future__ import annotations

from typing import Iterator

from ..coflow.model import Coflow, Flow
from ..errors import ConfigError
from ..net.headers import (  # noqa: F401 - canonical home is the net layer
    OP_DATA,
    OP_FLUSH,
    OP_GET,
    OP_PUT,
    OP_REPLY,
    OP_RESULT,
)
from ..net.packet import Packet
from ..net.traffic import DeterministicSource, merge_sources


def coflow_arrivals(
    coflow: Coflow,
    port_speed_bps: float,
    elements_per_packet: int,
    value_fn=None,
    opcode: int = OP_DATA,
    flush: bool = False,
    start_time: float = 0.0,
) -> Iterator[tuple[float, Packet]]:
    """Materialize a coflow's input flows as a merged timed arrival stream.

    Every input flow becomes a back-to-back line-rate stream on its source
    port (ports send concurrently, as coordinated workers do).  With
    ``flush`` set, each flow is terminated by an OP_FLUSH marker packet so
    streaming operators know when to emit partial state.

    Keys are globally indexed per flow position (``key = element index``)
    so that aggregation workloads see every worker contribute the same key
    set — the parameter-server pattern.

    The arguments are checked now; the packets are built on the first
    ``next()``, all of them and in flow order, so their ids are the ones
    an eager build would draw.  A switch run that consumes the stream
    therefore builds them inside its collector pause (docs/KERNEL.md).
    """
    if elements_per_packet < 1:
        raise ConfigError("elements per packet must be >= 1")
    flows = coflow.input_flows
    if not flows:
        raise ConfigError(f"coflow {coflow.coflow_id} has no input flows")

    def stream() -> Iterator[tuple[float, Packet]]:
        sources = []
        for flow in flows:
            packets = flow.packets(
                coflow.coflow_id,
                elements_per_packet,
                key_base=0,
                value_fn=value_fn,
                opcode=opcode,
            )
            if flush:
                packets.append(_flush_packet(coflow, flow))
            sources.append(
                DeterministicSource(
                    flow.src_port, port_speed_bps, packets,
                    start_time=start_time,
                )
            )
        yield from merge_sources(sources)

    return stream()


def _flush_packet(coflow: Coflow, flow: Flow) -> Packet:
    from ..net.traffic import make_coflow_packet

    packet = make_coflow_packet(
        coflow.coflow_id,
        flow.flow_id,
        seq=flow.packet_count(1) + 1,
        elements=[(0, 0)],
        element_width_bytes=flow.element_width_bytes,
        opcode=OP_FLUSH,
        worker_id=flow.worker_id,
    )
    packet.meta.ingress_port = flow.src_port
    packet.meta.egress_port = flow.dst_port
    return packet


def shuffled_destination(key: int, reducer_ports: list[int]) -> int:
    """Deterministic reshuffle target for a key (hash partitioning)."""
    from ..sim.rng import stable_hash64

    if not reducer_ports:
        raise ConfigError("need at least one reducer port")
    return reducer_ports[stable_hash64(key) % len(reducer_ports)]
