"""Tests for the architecture-neutral layer (repro.arch)."""

from __future__ import annotations

import pytest

from repro import ADCPConfig, ADCPSwitch, RMTConfig, RMTSwitch, Telemetry
from repro.arch.app import SwitchApp
from repro.arch.decision import Decision, Verdict
from repro.arch.port import TxPort
from repro.errors import ConfigError
from repro.net.traffic import make_coflow_packet
from repro.units import BITS_PER_BYTE, GBPS


class TestDecision:
    def test_factories(self):
        assert Decision.forward().verdict is Verdict.FORWARD
        assert Decision.drop("x").drop_reason == "x"
        assert Decision.consume().verdict is Verdict.CONSUME
        assert Decision.recirculate().verdict is Verdict.RECIRCULATE

    def test_emissions_attached(self):
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.egress_port = 3
        decision = Decision.consume(packet)
        assert decision.emissions == [packet]

    def test_validate_requires_egress_port(self):
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        decision = Decision.forward(packet)
        with pytest.raises(ConfigError):
            decision.validate()
        packet.meta.egress_ports = (1, 2)
        decision.validate()  # multicast ports suffice


class TestTxPort:
    def test_wire_time(self):
        port = TxPort(0, 100 * GBPS)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        expected = packet.wire_bytes * BITS_PER_BYTE / (100 * GBPS)
        assert port.wire_time(packet) == pytest.approx(expected)

    def test_serialization_queues_behind_busy_port(self):
        port = TxPort(0, 100 * GBPS)
        a = make_coflow_packet(1, 0, 0, [(1, 1)])
        b = make_coflow_packet(1, 0, 1, [(1, 1)])
        dep_a = port.transmit(a, 0.0)
        dep_b = port.transmit(b, 0.0)  # ready at 0 but port busy
        assert dep_b == pytest.approx(dep_a + port.wire_time(b))

    def test_idle_gap_not_charged(self):
        port = TxPort(0, 100 * GBPS)
        a = make_coflow_packet(1, 0, 0, [(1, 1)])
        port.transmit(a, 0.0)
        b = make_coflow_packet(1, 0, 1, [(1, 1)])
        dep_b = port.transmit(b, 1.0)
        assert dep_b == pytest.approx(1.0 + port.wire_time(b))

    def test_stats_accumulate(self):
        port = TxPort(0, 100 * GBPS)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        port.transmit(packet, 0.0)
        assert port.packets_sent == 1
        assert port.wire_bytes_sent == packet.wire_bytes
        assert port.goodput_bytes_sent == packet.goodput_bytes
        assert port.achieved_bps > 0

    def test_utilization(self):
        port = TxPort(0, 100 * GBPS)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        port.transmit(packet, 0.0)
        horizon = port.wire_time(packet) * 2
        assert port.utilization(horizon) == pytest.approx(0.5)
        with pytest.raises(ConfigError):
            port.utilization(0)

    def test_departure_stamped_on_packet(self):
        port = TxPort(0, 100 * GBPS)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        departure = port.transmit(packet, 0.0)
        assert packet.meta.departure_time == departure

    def test_validation(self):
        with pytest.raises(ConfigError):
            TxPort(-1, GBPS)
        with pytest.raises(ConfigError):
            TxPort(0, 0)


class TestSwitchAppBase:
    def test_default_hooks_forward(self):
        app = SwitchApp("noop")
        assert app.ingress(None, None, None).verdict is Verdict.FORWARD
        assert app.central(None, None, None).verdict is Verdict.FORWARD
        assert app.egress(None, None, None).verdict is Verdict.FORWARD
        assert not app.uses_central_state()

    def test_default_placement_key_prefers_payload(self):
        app = SwitchApp("noop")
        packet = make_coflow_packet(9, 0, 0, [(42, 1)])
        assert app.placement_key(packet) == 42

    def test_default_placement_key_falls_back_to_coflow_id(self):
        from repro.net.headers import coflow_header, standard_stack
        from repro.net.packet import Packet

        app = SwitchApp("noop")
        packet = Packet(standard_stack() + [coflow_header(9, 0)])
        assert app.placement_key(packet) == 9

    def test_bind_placement_installs_hash_policy(self):
        app = SwitchApp("noop")
        app.bind_placement(4)
        assert app.placement_policy is not None
        assert 0 <= app.partition_of_key(123) < 4

    def test_partition_before_bind_rejected(self):
        with pytest.raises(ConfigError):
            SwitchApp("noop").partition_of_key(1)

    def test_invalid_elements_per_packet(self):
        with pytest.raises(ConfigError):
            SwitchApp("bad", elements_per_packet=0)


def _one_slot_switch(target: str, telemetry):
    """A switch whose egress TM holds one packet, and that TM's path."""
    if target == "rmt":
        config = RMTConfig(
            num_ports=8,
            pipelines=2,
            port_speed_bps=100 * GBPS,
            min_wire_packet_bytes=84.0,
            frequency_hz=1.25e9,
            tm_buffer_packets=1,
        )
        return RMTSwitch(config, None, telemetry=telemetry), "rmt.tm"
    config = ADCPConfig(
        num_ports=8,
        port_speed_bps=100 * GBPS,
        demux_factor=2,
        central_pipelines=4,
        tm_buffer_packets=1,
    )
    return ADCPSwitch(config, None, telemetry=telemetry), "adcp.tm2"


class TestMulticastRejects:
    """A multicast copy the full egress TM turns away is a dropped packet."""

    @pytest.mark.parametrize("level", ["off", "full"])
    @pytest.mark.parametrize("target", ["rmt", "adcp"])
    def test_rejected_copies_are_dropped(self, target, level):
        telemetry = Telemetry.at_level("full") if level == "full" else None
        switch, tm = _one_slot_switch(target, telemetry)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_ports = (2, 5, 7)
        result = switch.run([(0.0, packet)])
        assert len(result.delivered) == 1
        assert len(result.dropped) == 2 == result.counters[f"{tm}.drops"]
        assert [p.meta.egress_port for p in result.dropped] == [5, 7]
        reason = f"{tm.rsplit('.', 1)[1]}_buffer_full"
        assert [p.meta.drop_reason for p in result.dropped] == [reason] * 2
        if telemetry is not None:
            ids = [p.packet_id for p in result.dropped]
            events = list(telemetry.trace)
            rejects = [e.packet_id for e in events if e.name == "tm.reject"]
            drops = [e for e in events if e.name == "packet.dropped"]
            assert rejects == ids
            assert [e.packet_id for e in drops] == ids
            assert [e.args["reason"] for e in drops] == [reason] * 2
