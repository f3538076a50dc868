"""Tests for packets and element arrays (repro.net.packet)."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.headers import standard_stack
from repro.net.packet import Element, ElementArray, Packet
from repro.net.traffic import make_coflow_packet


class TestElementArray:
    def test_from_tuples(self):
        array = ElementArray([(1, 10), (2, 20)], element_width_bytes=8)
        assert len(array) == 2
        assert array[0].key == 1
        assert array.keys() == [1, 2]
        assert array.values() == [10, 20]

    def test_width_bytes(self):
        array = ElementArray([(1, 1)] * 5, element_width_bytes=8)
        assert array.width_bytes == 40

    def test_copy_independent(self):
        """An element read out of the array is a read-only snapshot, and
        keys()/values() are fresh lists: none of them writes back."""
        array = ElementArray([(1, 1)])
        snapshot = array[0]
        with pytest.raises(FrozenInstanceError):
            snapshot.value = 99
        array.keys()[0] = 5
        array.values()[0] = 99
        assert array[0] == Element(1, 1)
        assert list(array) == [Element(1, 1)]

    def test_column_constructor_matches_pairs(self):
        pairs = ElementArray([(1, 10), Element(2, 20)], element_width_bytes=4)
        columns = ElementArray.from_columns([1, 2], [10, 20], 4)
        assert columns.key_column == pairs.key_column == (1, 2)
        assert columns.value_column == pairs.value_column == (10, 20)
        assert columns.width_bytes == pairs.width_bytes == 8

    def test_column_constructor_validates(self):
        with pytest.raises(ConfigError):
            ElementArray.from_columns([1], [1], element_width_bytes=0)
        with pytest.raises(ConfigError):
            ElementArray.from_columns([1, 2], [1])

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            ElementArray([], element_width_bytes=0)

    @given(st.lists(st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)), max_size=32))
    def test_length_matches_input(self, pairs):
        array = ElementArray(pairs)
        assert len(array) == len(pairs)


class TestPacketSizes:
    def test_minimum_frame_padding(self):
        """A near-empty packet pads to the 64 B Ethernet minimum."""
        packet = Packet(standard_stack())
        assert packet.frame_bytes == 64
        assert packet.wire_bytes == 84

    def test_scalar_coflow_packet_is_minimum_sized(self):
        """One 8 B element on the standard stack stays in the 64 B frame:
        42 B headers + 19 B coflow + 8 B + 4 B FCS = 73 > 64... so check
        actual arithmetic instead of assuming."""
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        expected = 14 + 20 + 8 + 19 + 8 + 4
        assert packet.frame_bytes == max(64, expected)

    def test_wide_packet_grows_linearly(self):
        p1 = make_coflow_packet(1, 1, 0, [(i, i) for i in range(1)])
        p16 = make_coflow_packet(1, 1, 0, [(i, i) for i in range(16)])
        assert p16.frame_bytes - p1.frame_bytes == 15 * 8

    def test_goodput_counts_only_elements(self):
        packet = make_coflow_packet(1, 1, 0, [(i, i) for i in range(4)])
        assert packet.goodput_bytes == 32
        assert packet.goodput_bytes < packet.wire_bytes

    def test_extra_payload_accounted(self):
        packet = Packet(standard_stack(), extra_payload_bytes=100)
        assert packet.payload_bytes == 100

    def test_negative_extra_payload_rejected(self):
        with pytest.raises(ConfigError):
            Packet(standard_stack(), extra_payload_bytes=-1)


class TestPacketHeaders:
    def test_header_lookup(self):
        packet = make_coflow_packet(3, 1, 0, [(1, 1)])
        assert packet.header("coflow")["coflow_id"] == 3
        assert packet.has_header("ipv4")
        assert not packet.has_header("vlan")

    def test_missing_header_raises(self):
        packet = Packet(standard_stack())
        with pytest.raises(ConfigError):
            packet.header("coflow")

    def test_element_count(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1), (2, 2)])
        assert packet.element_count == 2


class TestPacketCopy:
    def test_copy_gets_fresh_id_and_meta(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        packet.meta.egress_port = 5
        clone = packet.copy()
        assert clone.packet_id != packet.packet_id
        assert clone.meta.egress_port is None

    def test_copy_payload_independent(self):
        """The copy shares the immutable payload; its elements cannot be
        written, and giving the copy a new payload leaves the source's."""
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        clone = packet.copy()
        assert clone.payload is packet.payload
        with pytest.raises(FrozenInstanceError):
            clone.payload[0].value = 42
        clone.payload = ElementArray([(1, 42)])
        assert packet.payload[0].value == 1
        assert clone.payload[0].value == 42

    def test_copy_headers_independent(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        clone = packet.copy()
        clone.header("coflow")["seq"] = 99
        assert packet.header("coflow")["seq"] == 0

    def test_source_write_leaves_copy(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        clone = packet.copy()
        packet.header("coflow")["seq"] = 99
        packet.payload = ElementArray([(1, 42)])
        assert clone.header("coflow")["seq"] == 0
        assert clone.payload[0].value == 1


class TestPacketMetadata:
    def test_dropped_flag(self):
        packet = Packet(standard_stack())
        assert not packet.meta.dropped
        packet.meta.drop_reason = "full"
        assert packet.meta.dropped

    def test_defaults(self):
        meta = Packet(standard_stack()).meta
        assert meta.ingress_port is None
        assert meta.recirculations == 0
        assert meta.central_done is False
