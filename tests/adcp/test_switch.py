"""Behavioral tests for the ADCP switch (repro.adcp.switch).

These encode the section 3 claims: any-port reachability from the global
area, array-wide stateful processing, and demuxed lane clocks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adcp.config import ADCPConfig
from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.arch.app import SwitchApp
from repro.arch.decision import Decision
from repro.errors import ConfigError
from repro.net.traffic import DeterministicSource, make_coflow_packet
from repro.units import GBPS


def _forwarding_run(config, n=40, ingress=0, egress=7):
    switch = ADCPSwitch(config)
    packets = []
    for i in range(n):
        packet = make_coflow_packet(1, 0, i, [(i, i)])
        packet.meta.egress_port = egress
        packets.append(packet)
    source = DeterministicSource(ingress, config.port_speed_bps, packets)
    return switch, switch.run(source.packets())


class TestForwarding:
    def test_delivery(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config)
        assert result.delivered_count == 40
        assert not result.dropped

    def test_lanes_round_robin(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=10)
        lanes = {p.meta.lane for p in result.delivered}
        assert lanes == {0, 1}  # both lanes of port 0

    def test_all_packets_traverse_central(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=10)
        assert all(p.meta.central_pipeline is not None for p in result.delivered)

    def test_tm1_places_by_key_hash(self, small_adcp_config):
        switch, result = _forwarding_run(small_adcp_config, n=100)
        histogram = switch.tm1.partition_histogram()
        assert sum(histogram) == 100
        assert all(count > 0 for count in histogram)

    def test_multicast_via_tm2(self, small_adcp_config):
        switch = ADCPSwitch(small_adcp_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_ports = (2, 5, 7)
        result = switch.run([(0.0, packet)])
        assert sorted(p.meta.egress_port for p in result.delivered) == [2, 5, 7]
        assert result.recirculated_packets == 0


class TestGlobalArea:
    def test_aggregation_reaches_every_port_without_recirculation(
        self, small_adcp_config
    ):
        """Figure 5: results placed by hash can still exit any port."""
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        result = switch.run(app.workload(small_adcp_config.port_speed_bps))
        assert app.collect_results(result.delivered) == app.expected_result()
        assert result.recirculated_packets == 0
        delivered_ports = {p.meta.egress_port for p in result.delivered}
        assert delivered_ports == {0, 1, 4, 5}

    def test_state_partitioned_across_central_pipelines(self, small_adcp_config):
        app = ParameterServerApp([0, 1, 4, 5], 256, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        switch.run(app.workload(small_adcp_config.port_speed_bps))
        with_state = [c for c in switch.central if "agg_acc" in c.registers]
        assert len(with_state) >= 2  # spread, not pinned

    def test_ingress_and_egress_hold_no_aggregation_state(self, small_adcp_config):
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
        switch = ADCPSwitch(small_adcp_config, app)
        switch.run(app.workload(small_adcp_config.port_speed_bps))
        assert not any("agg_acc" in p.registers for p in switch.ingress)
        assert not any("agg_acc" in p.registers for p in switch.egress)


class TestArraySupport:
    def test_wide_app_accepted_up_to_array_width(self, small_adcp_config):
        ParameterServerApp([0, 1], 32, elements_per_packet=16)
        ADCPSwitch(
            small_adcp_config,
            ParameterServerApp([0, 1], 32, elements_per_packet=16),
        )

    def test_wider_than_array_rejected(self, small_adcp_config):
        config = dataclasses.replace(small_adcp_config, array_width=8)
        app = ParameterServerApp([0, 1], 32, elements_per_packet=16)
        with pytest.raises(ConfigError):
            ADCPSwitch(config, app)

    def test_wide_packets_need_fewer_packets_for_same_elements(
        self, small_adcp_config
    ):
        """Same vector, 16x fewer packets — the key-rate argument at the
        packet level."""
        wide = ParameterServerApp([0, 1], 256, elements_per_packet=16)
        scalar = ParameterServerApp([0, 1], 256, elements_per_packet=1)
        wide_switch = ADCPSwitch(small_adcp_config, wide)
        wide_result = wide_switch.run(
            wide.workload(small_adcp_config.port_speed_bps)
        )
        scalar_switch = ADCPSwitch(small_adcp_config, scalar)
        scalar_result = scalar_switch.run(
            scalar.workload(small_adcp_config.port_speed_bps)
        )
        assert wide.collect_results(wide_result.delivered) == wide.expected_result()
        assert scalar.collect_results(
            scalar_result.delivered
        ) == scalar.expected_result()
        assert scalar_result.consumed >= 8 * wide_result.consumed
        assert scalar_result.duration_s > 3 * wide_result.duration_s


class TestProgrammingModelGuards:
    @pytest.mark.parametrize("station", ["ingress", "central", "egress"])
    def test_recirculate_verdict_rejected(self, small_adcp_config, station):
        """No ADCP region may recirculate: every station refuses the
        verdict with the same error instead of forwarding the packet."""

        class BadApp(SwitchApp):
            def __init__(self):
                super().__init__("bad")

        def recirculate(self, ctx, packet, phv):
            return Decision.recirculate()

        setattr(BadApp, station, recirculate)
        switch = ADCPSwitch(small_adcp_config, BadApp())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        with pytest.raises(ConfigError, match="ADCP programs never recirculate"):
            switch.run([(0.0, packet)])
        assert not switch.finalize().delivered

    def test_egress_emission_rejected(self, small_adcp_config):
        class BadApp(SwitchApp):
            def __init__(self):
                super().__init__("bad")

            def egress(self, ctx, packet, phv):
                extra = make_coflow_packet(1, 0, 0, [(1, 1)])
                extra.meta.egress_port = 0
                return Decision.forward(extra)

        switch = ADCPSwitch(small_adcp_config, BadApp())
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        packet.meta.egress_port = 1
        with pytest.raises(ConfigError):
            switch.run([(0.0, packet)])

    def test_no_route_drop(self, small_adcp_config):
        switch = ADCPSwitch(small_adcp_config)
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        packet.meta.ingress_port = 0
        result = switch.run([(0.0, packet)])
        assert result.dropped[0].meta.drop_reason == "no_route"
