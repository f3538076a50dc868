"""Tests for packet parsing (repro.net.parser)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ParseError
from repro.net.headers import (
    COFLOW_UDP_PORT,
    ETHERNET,
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    IPV4,
    standard_stack,
)
from repro.net.packet import Packet
from repro.net.parser import ParseGraph, Parser, ParseState
from repro.net.traffic import make_coflow_packet


class TestParseGraph:
    def test_standard_graph_validates(self):
        graph = ParseGraph.standard_coflow_graph()
        assert len(graph) == 4
        assert "coflow" in graph

    def test_duplicate_state_rejected(self):
        graph = ParseGraph(start="a")
        graph.add(ParseState("a"))
        with pytest.raises(ConfigError):
            graph.add(ParseState("a"))

    def test_reserved_names_rejected(self):
        graph = ParseGraph()
        with pytest.raises(ConfigError):
            graph.add(ParseState("accept"))

    def test_unknown_transition_target_rejected(self):
        graph = ParseGraph(start="a")
        graph.add(ParseState("a", transitions={"default": "ghost"}))
        with pytest.raises(ConfigError):
            graph.validate()

    def test_missing_start_rejected(self):
        graph = ParseGraph(start="nope")
        graph.add(ParseState("a"))
        with pytest.raises(ConfigError):
            graph.validate()

    def test_next_state_selection(self):
        state = ParseState(
            "s", select_field="f", transitions={5: "five", "default": "other"}
        )
        assert state.next_state(5) == "five"
        assert state.next_state(6) == "other"

    def test_next_state_without_default_rejects(self):
        state = ParseState("s", select_field="f", transitions={5: "five"})
        assert state.next_state(6) == "reject"


class TestParser:
    def test_full_stack_extraction(self):
        parser = Parser(ParseGraph.standard_coflow_graph())
        packet = make_coflow_packet(9, 2, 1, [(10, 100), (11, 110)])
        result = parser.parse(packet)
        assert result.accepted
        assert result.headers_extracted == ("ethernet", "ipv4", "udp", "coflow")
        assert result.phv["coflow.coflow_id"] == 9
        assert result.phv.array("elems.key") == [10, 11]
        assert result.phv.array("elems.value") == [100, 110]

    def test_non_coflow_packet_accepted_early(self):
        parser = Parser(ParseGraph.standard_coflow_graph())
        eth = ETHERNET.instantiate(ethertype=0x86DD)  # not IPv4
        result = parser.parse(Packet([eth]))
        assert result.accepted
        assert result.headers_extracted == ("ethernet",)

    def test_missing_expected_header_rejects(self):
        parser = Parser(ParseGraph.standard_coflow_graph())
        eth = ETHERNET.instantiate(ethertype=0x0800)  # promises IPv4
        result = parser.parse(Packet([eth]))
        assert not result.accepted
        assert parser.packets_rejected == 1

    def test_bytes_examined_counts_headers_and_payload(self):
        parser = Parser(ParseGraph.standard_coflow_graph())
        packet = make_coflow_packet(1, 1, 0, [(1, 1)] * 4)
        result = parser.parse(packet)
        assert result.bytes_examined == 14 + 20 + 8 + 19 + 32

    def test_array_wider_than_state_limit_raises(self):
        graph = ParseGraph.standard_coflow_graph(max_elements=2)
        parser = Parser(graph)
        packet = make_coflow_packet(1, 1, 0, [(i, i) for i in range(4)])
        with pytest.raises(ParseError):
            parser.parse(packet)

    def test_scalar_fallback_extracts_first_element_only(self):
        """array_capable=False models classic RMT's 1-key lift."""
        parser = Parser(ParseGraph.standard_coflow_graph(), array_capable=False)
        packet = make_coflow_packet(1, 1, 0, [(7, 70), (8, 80)])
        result = parser.parse(packet)
        assert result.accepted
        assert result.phv["elems.key[0]"] == 7
        assert result.phv.array_length("elems.key") == 1

    def test_depth_limit_catches_loops(self):
        graph = ParseGraph(start="loop")
        graph.add(ParseState("loop", transitions={"default": "loop"}))
        parser = Parser(graph, max_depth=8)
        with pytest.raises(ParseError):
            parser.parse(Packet(standard_stack()))

    def test_counters(self):
        parser = Parser(ParseGraph.standard_coflow_graph())
        parser.parse(make_coflow_packet(1, 1, 0, [(1, 1)]))
        assert parser.packets_parsed == 1


@st.composite
def _parser_cases(draw):
    """A parse-graph array width, array capability, and a recipe for a
    packet the parser may accept, reject, or raise on: next-protocol
    fields that do or do not lead on, a header left out, and arrays
    within and beyond the width."""
    # Choices are weighted towards the full coflow stack, so that the
    # array state, and with it the width check, is reached often.
    width = draw(st.integers(1, 6))
    array_capable = draw(st.sampled_from([True, True, False]))
    ethertype = draw(st.sampled_from([ETHERTYPE_IPV4] * 3 + [0x86DD]))
    protocol = draw(st.sampled_from([IP_PROTO_UDP] * 3 + [6]))
    dst_port = draw(st.sampled_from([COFLOW_UDP_PORT] * 3 + [80]))
    missing = draw(st.sampled_from([None] * 4 + [0, 1, 2, 3]))
    elements = draw(st.integers(0, 2 * width))

    def make_packet():
        packet = make_coflow_packet(
            3, 1, 0, [(k, 10 * k) for k in range(elements)]
        )
        eth, ip, udp, _ = packet.headers
        eth["ethertype"] = ethertype
        ip["protocol"] = protocol
        udp["dst_port"] = dst_port
        if missing is not None:
            headers = packet.headers
            packet.headers = headers[:missing] + headers[missing + 1:]
        return packet

    return width, array_capable, make_packet


def _outcome(call):
    try:
        return call()
    except ParseError as error:
        return ParseError, str(error)


class TestAcceptsMatchesParse:
    """``accepts`` + ``lazy_phv`` is the only parse the pipeline runs;
    ``parse`` is its reference."""

    @settings(max_examples=300, deadline=None)
    @given(_parser_cases())
    def test_verdict_counts_errors_and_fields_agree(self, case):
        width, array_capable, make_packet = case
        graph = ParseGraph.standard_coflow_graph(max_elements=width)
        walker = Parser(graph, array_capable=array_capable)
        reference = Parser(graph, array_capable=array_capable)
        packet = make_packet()
        verdict = _outcome(lambda: walker.accepts(packet))
        parsed = _outcome(lambda: reference.parse(make_packet()))
        counts = (walker.packets_parsed, walker.packets_rejected)
        assert counts == (reference.packets_parsed, reference.packets_rejected)
        if isinstance(parsed, tuple):
            assert verdict == parsed
            return
        assert verdict == parsed.accepted
        lazy = walker.lazy_phv(packet)
        assert dict(lazy.fields()) == dict(parsed.phv.fields())
        assert lazy.used_bits == parsed.phv.used_bits
        # Filling the lazy PHV takes no second count.
        assert (walker.packets_parsed, walker.packets_rejected) == counts
        # A memoized verdict counts like a fresh walk.
        again = reference.parse(make_packet())
        assert walker.accepts(packet) == again.accepted
        assert (walker.packets_parsed, walker.packets_rejected) == (
            reference.packets_parsed,
            reference.packets_rejected,
        )
