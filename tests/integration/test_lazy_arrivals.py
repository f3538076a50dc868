"""Lazy arrival builders: packets are built on the first ``next()``.

``ParameterServerApp.workload`` and ``SingleStream.arrivals`` check their
arguments when called but build no packet until iterated, so a switch
run builds them inside its collector pause (docs/KERNEL.md, "Collector
policy").  They are still built all at once and in the eager order, so
every packet keeps the id an eager build would give it; and a streamed
run holds no spent request once its drain is done.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps import ParameterServerApp
from repro.net.headers import OP_GET, OP_PUT
from repro.net.packet import Packet, consume_packet_id
from repro.rmt.switch import RMTSwitch
from repro.stateful.workloads import STATEFUL_WORKLOADS, build_single
from repro.units import GBPS

_BPS = 100 * GBPS


def _ids_drawn_by(call) -> tuple[object, int]:
    """``call()``'s result and how many packet ids the call drew."""
    before = consume_packet_id()
    result = call()
    return result, consume_packet_id() - before - 1


class TestNoIdUntilIterated:
    def test_paramserver_workload(self):
        app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=4)
        arrivals, drawn = _ids_drawn_by(lambda: app.workload(_BPS))
        assert drawn == 0
        base = consume_packet_id() + 1
        packets = [packet for _, packet in arrivals]
        assert len(packets) == 4 * 8
        # One flow after another, as the eager build drew them: each
        # worker's packets hold a contiguous, ascending id block.
        by_port: dict[int, list[int]] = {}
        for packet in packets:
            by_port.setdefault(packet.meta.ingress_port, []).append(
                packet.packet_id
            )
        flat = [pid for port in (0, 1, 4, 5) for pid in by_port[port]]
        assert flat == list(range(base, base + len(packets)))

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_single_stream_arrivals(self, workload, small_rmt_config):
        stream = build_single(
            workload, flows=16, packets=40, port_speed_bps=_BPS
        )
        # Heavy-hitter batching reads the placement the switch binds.
        RMTSwitch(small_rmt_config, stream.app)
        arrivals, drawn = _ids_drawn_by(lambda: stream.arrivals(_BPS))
        assert drawn == 0
        timed = list(arrivals)
        assert len(timed) == 40
        times = [time for time, _ in timed]
        assert times == sorted(times)


def test_streamed_keycache_run_frees_spent_requests(small_rmt_config):
    config = small_rmt_config
    stream = build_single(
        "keycache", flows=16, packets=200, port_speed_bps=config.port_speed_bps
    )
    switch = RMTSwitch(config, stream.app)
    first_id = consume_packet_id()
    arrivals = stream.arrivals(config.port_speed_bps)
    result = switch.run(arrivals)
    assert len(result.delivered) == 200  # every request was answered
    # The run consumed each request and answered with a fresh packet; with
    # ``arrivals`` still held, no request may outlive the drain.
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, Packet)
        and obj.packet_id > first_id
        and obj.header("coflow")["opcode"] in (OP_GET, OP_PUT)
    ]
    assert alive == []
