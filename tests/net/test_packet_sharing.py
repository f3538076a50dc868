"""Tests for the packet's shared in-memory layout (repro.net).

A header copy shares its source's value dict until either side writes,
and a payload is an immutable pair of columns that copies share.  The
property test drives random sequences of copies, writes, multicasts and
deparses against a deep-copy reference model; the footprint tests pin
the layout structurally, with values compared within one interpreter.
"""

from __future__ import annotations

import copy
import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.deparser import Deparser
from repro.net.packet import ElementArray, Packet
from repro.net.parser import ParseGraph, Parser
from repro.net.traffic import make_coflow_packet
from repro.rmt.traffic_manager import TrafficManager
from repro.sim.component import Component
from repro.sim.event import CollectorPause

#: Fields the property test writes: none steers the parse graph, so a
#: written packet still parses through all four headers.
WRITABLE = (
    ("ethernet", "src_mac", 48),
    ("ipv4", "ttl", 8),
    ("ipv4", "src_ip", 32),
    ("udp", "src_port", 16),
    ("coflow", "seq", 32),
    ("coflow", "round", 16),
    ("coflow", "element_count", 8),
)


def _tm(buffer_packets: int = 1 << 20) -> TrafficManager:
    return TrafficManager(
        "tm",
        Component("switch"),
        route=lambda packet: packet.meta.egress_port // 4,
        buffer_packets=buffer_packets,
    )


def _state(packet: Packet):
    """A packet's header values and payload as plain, unshared data."""
    payload = packet.payload
    return (
        [(h.type.name, dict(h.items())) for h in packet.headers],
        None
        if payload is None
        else (payload.key_column, payload.value_column, payload.element_width_bytes),
    )


def _set(model, type_name: str, field: str, value: int) -> None:
    for name, values in model[0]:
        if name == type_name:
            values[field] = value


def _deparsed(model):
    """What a deparse does to the model: element_count follows the payload."""
    if model[1] is not None:
        _set(model, "coflow", "element_count", len(model[1][0]))
    return model


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "packet_copy",
                "header_copy",
                "write",
                "header_write",
                "multicast",
                "clean_deparse",
                "dirty_deparse",
                "array_deparse",
                "replace_payload",
            ]
        ),
        st.integers(0, 1 << 16),
        st.integers(0, len(WRITABLE) - 1),
        st.integers(0, (1 << 48) - 1),
    ),
    max_size=40,
)


class TestCopyOnWrite:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
            min_size=1,
            max_size=16,
        ),
        _ops,
    )
    def test_random_operations_match_deep_copy_model(self, elements, ops):
        parser = Parser(ParseGraph.standard_coflow_graph())
        deparser = Deparser()
        tm = _tm()
        packets = [make_coflow_packet(1, 2, 3, elements)]
        models = [_state(packets[0])]
        headers = []  # loose Header copies, beside their models
        header_models = []
        for op, pick, field_pick, raw in ops:
            index = pick % len(packets)
            source = packets[index]
            type_name, field, width = WRITABLE[field_pick]
            value = raw & ((1 << width) - 1)
            if op == "packet_copy":
                packets.append(source.copy())
                models.append(copy.deepcopy(models[index]))
            elif op == "header_copy":
                position = pick % 4
                if headers and pick % 2:
                    loose = pick % len(headers)
                    headers.append(headers[loose].copy())
                    header_models.append(dict(header_models[loose]))
                else:
                    headers.append(source.headers[position].copy())
                    header_models.append(dict(models[index][0][position][1]))
            elif op == "write":
                source.header(type_name)[field] = value
                _set(models[index], type_name, field, value)
            elif op == "header_write":
                if not headers:
                    continue
                loose = pick % len(headers)
                fields = headers[loose].type.fields
                spec = fields[field_pick % len(fields)]
                headers[loose][spec.name] = value & spec.max_value
                header_models[loose][spec.name] = value & spec.max_value
            elif op == "multicast":
                ports = tuple(range(1 + pick % 3))
                for replica, _, _ in tm.multicast_admit(source, ports, 0.0):
                    packets.append(replica)
                    models.append(copy.deepcopy(models[index]))
            elif op in ("clean_deparse", "dirty_deparse", "array_deparse"):
                phv = parser.parse(source).phv
                model = copy.deepcopy(models[index])
                if op == "dirty_deparse":
                    phv[f"{type_name}.{field}"] = value
                    _set(model, type_name, field, value)
                elif op == "array_deparse":
                    values = phv.array("elems.value")
                    values[pick % len(values)] = value & 0xFFFFFFFF
                    phv.set_array("elems.value", values)
                    keys, _, width = model[1]
                    model = (model[0], (keys, tuple(values), width))
                packets.append(deparser.deparse(phv, source))
                models.append(_deparsed(model))
            else:  # replace_payload
                pairs = [(value & 0xFFFF, pick)] * (1 + field_pick)
                source.payload = ElementArray(pairs, element_width_bytes=4)
                models[index] = (
                    models[index][0],
                    (
                        tuple(k for k, _ in pairs),
                        tuple(v for _, v in pairs),
                        4,
                    ),
                )
            for packet, model in zip(packets, models):
                assert _state(packet) == model
            for header, model in zip(headers, header_models):
                assert dict(header.items()) == model


def _tracked_objects_added(elements: int, packets: int = 1000) -> int:
    pairs = [(i, i + 1) for i in range(elements)]
    make_coflow_packet(1, 0, 0, pairs)  # builds the shared header template
    with CollectorPause():
        before = len(gc.get_objects())
        built = [make_coflow_packet(1, 0, seq, pairs) for seq in range(packets)]
        added = len(gc.get_objects()) - before
    del built
    return added


class TestFootprint:
    def test_tracked_objects_do_not_grow_with_elements(self):
        assert _tracked_objects_added(16) == _tracked_objects_added(1)

    def test_multicast_copies_share_until_written(self):
        packet = make_coflow_packet(1, 0, 0, [(i, i) for i in range(16)])
        first, second = (
            replica for replica, _, _ in _tm().multicast_admit(packet, (0, 4), 0.0)
        )
        for replica in (first, second):
            assert replica.payload is packet.payload
            for original, shared in zip(packet.headers, replica.headers):
                assert shared._values is original._values
        first.header("coflow")["seq"] = 9
        assert first.header("coflow")._values is not packet.header("coflow")._values
        assert second.header("coflow")._values is packet.header("coflow")._values
        assert first.header("ipv4")._values is packet.header("ipv4")._values
        assert packet.header("coflow")["seq"] == second.header("coflow")["seq"] == 0

    def test_clean_deparse_shares_everything(self):
        packet = make_coflow_packet(1, 0, 0, [(i, i) for i in range(16)])
        phv = Parser(ParseGraph.standard_coflow_graph()).parse(packet).phv
        rebuilt = Deparser().deparse(phv, packet)
        assert rebuilt.payload is packet.payload
        for original, shared in zip(packet.headers, rebuilt.headers):
            assert shared._values is original._values

    def test_dirty_deparse_unshares_only_what_changed(self):
        packet = make_coflow_packet(1, 0, 0, [(i, i) for i in range(16)])
        phv = Parser(ParseGraph.standard_coflow_graph()).parse(packet).phv
        phv["ipv4.ttl"] = 7
        rebuilt = Deparser().deparse(phv, packet)
        assert rebuilt.header("ipv4")._values is not packet.header("ipv4")._values
        assert rebuilt.header("ipv4")["ttl"] == 7
        assert packet.header("ipv4")["ttl"] == 64
        for name in ("ethernet", "udp", "coflow"):
            assert rebuilt.header(name)._values is packet.header(name)._values
        assert rebuilt.payload is packet.payload

    def test_packet_and_payload_have_no_instance_dict(self):
        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        assert not hasattr(packet, "__dict__")
        assert not hasattr(packet.payload, "__dict__")
