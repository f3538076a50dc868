"""Tests for packet reassembly (repro.net.deparser)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DeparseError
from repro.net.deparser import Deparser
from repro.net.parser import ParseGraph, Parser
from repro.net.traffic import make_coflow_packet


def _parse(packet, **parser_kwargs):
    parser = Parser(ParseGraph.standard_coflow_graph(), **parser_kwargs)
    result = parser.parse(packet)
    assert result.accepted
    return result


class TestDeparser:
    def test_unmodified_roundtrip(self):
        packet = make_coflow_packet(3, 1, 5, [(1, 10), (2, 20)])
        result = _parse(packet)
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.header("coflow")["coflow_id"] == 3
        assert rebuilt.payload is not None
        assert rebuilt.payload.keys() == [1, 2]
        assert rebuilt.payload.values() == [10, 20]
        assert rebuilt.frame_bytes == packet.frame_bytes

    def test_header_field_modification_applies(self):
        packet = make_coflow_packet(3, 1, 5, [(1, 10)])
        result = _parse(packet)
        result.phv["ipv4.ttl"] = 63
        result.phv["coflow.round"] = 7
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.header("ipv4")["ttl"] == 63
        assert rebuilt.header("coflow")["round"] == 7

    def test_array_modification_applies(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 10), (2, 20)])
        result = _parse(packet)
        result.phv.set_array("elems.value", [100, 200])
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.payload is not None
        assert rebuilt.payload.values() == [100, 200]

    def test_element_count_header_follows_payload(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1), (2, 2)])
        result = _parse(packet)
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.header("coflow")["element_count"] == 2

    def test_payload_passthrough_without_array_lift(self):
        """When the parser never lifted the array (no coflow header in the
        parse path), the original payload passes through untouched."""
        packet = make_coflow_packet(1, 1, 0, [(5, 50)])
        # Parse only the Ethernet header by rejecting at IPv4 via a
        # non-matching ethertype.
        packet.header("ethernet")["ethertype"] = 0x1234
        parser = Parser(ParseGraph.standard_coflow_graph())
        result = parser.parse(packet)
        assert result.accepted
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.payload is not None
        assert rebuilt.payload.keys() == [5]

    def test_scalar_parser_keeps_unlifted_elements(self):
        """A scalar (RMT) parser lifts only element 0; the elements it
        never lifted pass through the deparse, header writes or not."""
        packet = make_coflow_packet(1, 1, 0, [(1, 10), (2, 20), (3, 30)])
        result = _parse(packet, array_capable=False)
        result.phv["ipv4.ttl"] = 63
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.header("ipv4")["ttl"] == 63
        assert rebuilt.payload is packet.payload  # left alone: shared
        assert rebuilt.header("coflow")["element_count"] == 3

        result = _parse(packet, array_capable=False)
        result.phv["elems.value[0]"] = 99
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.payload.keys() == [1, 2, 3]
        assert rebuilt.payload.values() == [99, 20, 30]
        assert rebuilt.header("coflow")["element_count"] == 3
        assert packet.payload.values() == [10, 20, 30]

    def test_metadata_carried_over(self):
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        packet.meta.egress_port = 9
        result = _parse(packet)
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.meta.egress_port == 9

    def test_counts_deparsed(self):
        deparser = Deparser()
        packet = make_coflow_packet(1, 1, 0, [(1, 1)])
        result = _parse(packet)
        deparser.deparse(result.phv, packet)
        assert deparser.packets_deparsed == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31),
                st.integers(min_value=0, max_value=2**31),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_parse_deparse_identity_property(self, elements):
        """Parsing then deparsing any coflow packet is the identity on
        headers and payload."""
        packet = make_coflow_packet(1, 2, 3, elements)
        result = _parse(packet)
        rebuilt = Deparser().deparse(result.phv, packet)
        assert rebuilt.payload is not None
        assert rebuilt.payload.keys() == [k for k, _ in elements]
        assert rebuilt.payload.values() == [v for _, v in elements]
        for original, copy in zip(packet.headers, rebuilt.headers):
            assert original == copy
