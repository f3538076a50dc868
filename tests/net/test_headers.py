"""Tests for header formats (repro.net.headers)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.headers import (
    COFLOW_HEADER,
    ETHERNET,
    IPV4,
    UDP,
    FieldSpec,
    Header,
    HeaderType,
    coflow_header,
    standard_stack,
)


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("f", 8).max_value == 255
        assert FieldSpec("f", 1).max_value == 1

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            FieldSpec("", 8)
        with pytest.raises(ConfigError):
            FieldSpec("f", 0)


class TestHeaderType:
    def test_width_sums_fields(self):
        assert ETHERNET.width_bits == 112
        assert ETHERNET.width_bytes == 14
        assert IPV4.width_bytes == 20
        assert UDP.width_bytes == 8

    def test_field_lookup(self):
        assert ETHERNET.field("ethertype").width_bits == 16
        with pytest.raises(ConfigError):
            ETHERNET.field("missing")
        assert "dst_mac" in ETHERNET
        assert "nope" not in ETHERNET

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ConfigError):
            HeaderType("h", (FieldSpec("a", 8), FieldSpec("a", 8)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            HeaderType("h", ())


class TestHeader:
    def test_defaults_to_zero(self):
        header = ETHERNET.instantiate()
        assert header["dst_mac"] == 0

    def test_set_and_get(self):
        header = UDP.instantiate(dst_port=53)
        assert header["dst_port"] == 53
        header["src_port"] = 1000
        assert header["src_port"] == 1000

    def test_range_check(self):
        header = UDP.instantiate()
        with pytest.raises(ConfigError):
            header["dst_port"] = 1 << 16
        with pytest.raises(ConfigError):
            header["dst_port"] = -1

    def test_unknown_field(self):
        header = UDP.instantiate()
        with pytest.raises(ConfigError):
            _ = header["nope"]
        with pytest.raises(ConfigError):
            header["nope"] = 1

    def test_copy_is_independent(self):
        a = UDP.instantiate(dst_port=1)
        b = a.copy()
        b["dst_port"] = 2
        assert a["dst_port"] == 1
        # And the reverse: a write to the source leaves the copy.
        c = a.copy()
        a["dst_port"] = 3
        assert c["dst_port"] == 1
        assert b["dst_port"] == 2

    def test_equality(self):
        assert UDP.instantiate(dst_port=5) == UDP.instantiate(dst_port=5)
        assert UDP.instantiate(dst_port=5) != UDP.instantiate(dst_port=6)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_any_in_range_value_roundtrips(self, value):
        header = UDP.instantiate()
        header["length"] = value
        assert header["length"] == value


class TestStandardStack:
    def test_stack_is_wired(self):
        eth, ip, udp = standard_stack(dst_ip=0x0A000001)
        assert eth["ethertype"] == 0x0800
        assert ip["protocol"] == 17
        assert ip["dst_ip"] == 0x0A000001
        assert udp["dst_port"] == 0x4D43

    def test_coflow_header_fields(self):
        header = coflow_header(5, 2, seq=9, opcode=1, element_count=16, round_=3)
        assert header["coflow_id"] == 5
        assert header["flow_id"] == 2
        assert header["seq"] == 9
        assert header["opcode"] == 1
        assert header["element_count"] == 16
        assert header["round"] == 3

    def test_coflow_header_width(self):
        # 32+32+32+8+8+8+16+16 = 152 bits = 19 bytes
        assert COFLOW_HEADER.width_bytes == 19
