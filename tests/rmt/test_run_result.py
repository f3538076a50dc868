"""Tests for SwitchRunResult accounting helpers (repro.arch.switch)."""

from __future__ import annotations

import pytest

from repro.arch import SwitchRunResult
from repro.errors import ConfigError
from repro.net.traffic import make_coflow_packet


def _delivered(port: int, elements: int = 2, departure: float = 1.0):
    packet = make_coflow_packet(1, 0, 0, [(i, i) for i in range(elements)])
    packet.meta.egress_port = port
    packet.meta.departure_time = departure
    return packet


class TestSwitchRunResult:
    def test_counting_helpers(self):
        result = SwitchRunResult()
        result.delivered.extend([_delivered(1), _delivered(2, elements=4)])
        assert result.delivered_count == 2
        assert result.delivered_elements == 6
        assert result.delivered_goodput_bytes == 6 * 8
        assert result.delivered_wire_bytes == sum(
            p.wire_bytes for p in result.delivered
        )

    def test_delivered_to_filters_by_port(self):
        result = SwitchRunResult()
        result.delivered.extend([_delivered(1), _delivered(2), _delivered(1)])
        assert len(result.delivered_to(1)) == 2
        assert len(result.delivered_to(9)) == 0

    def test_last_departure(self):
        result = SwitchRunResult()
        result.delivered.extend(
            [_delivered(1, departure=0.5), _delivered(1, departure=2.5)]
        )
        assert result.last_departure() == 2.5

    def test_last_departure_empty_raises(self):
        with pytest.raises(ConfigError):
            SwitchRunResult().last_departure()

    def test_defaults(self):
        result = SwitchRunResult()
        assert result.delivered_count == 0
        assert result.consumed == 0
        assert result.recirculated_packets == 0
        assert result.unreachable_emissions == 0
        assert result.counters == {}
