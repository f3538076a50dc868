"""Declarative packet header formats.

A :class:`HeaderType` is an ordered list of :class:`FieldSpec` (name, width
in bits); a :class:`Header` is an instance with concrete field values.  The
module ships the standard Ethernet/IPv4/UDP stack plus the application
header the in-network apps use: a *coflow header* carrying coflow id, flow
id, sequence number, operation code, and an element count describing the
array payload that follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass(frozen=True)
class FieldSpec:
    """One field of a header: a name and a bit width."""

    name: str
    width_bits: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("field name must be non-empty")
        if self.width_bits <= 0:
            raise ConfigError(
                f"field {self.name!r} width must be positive, got {self.width_bits}"
            )

    @property
    def max_value(self) -> int:
        return (1 << self.width_bits) - 1


@dataclass(frozen=True)
class HeaderType:
    """An ordered, fixed-layout header format."""

    name: str
    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ConfigError(f"header type {self.name!r} has no fields")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ConfigError(f"header type {self.name!r} has duplicate fields")
        # Layout caches: header types are frozen, and field lookups /
        # width sums sit on the per-packet parse and deparse paths, so
        # pay for them once at construction.
        object.__setattr__(self, "_by_name", {f.name: f for f in self.fields})
        object.__setattr__(
            self, "_max_by_name", {f.name: f.max_value for f in self.fields}
        )
        object.__setattr__(self, "_zero_values", {f.name: 0 for f in self.fields})
        bits = sum(f.width_bits for f in self.fields)
        object.__setattr__(self, "_width_bits", bits)
        object.__setattr__(self, "_width_bytes", (bits + 7) // 8)
        # Deparse plan: per field, the PHV-qualified name ("type.field")
        # and the bare field name.
        object.__setattr__(
            self,
            "_deparse_plan",
            tuple((f"{self.name}.{f.name}", f.name) for f in self.fields),
        )

    @property
    def width_bits(self) -> int:
        return self._width_bits

    @property
    def width_bytes(self) -> int:
        return self._width_bytes

    def field(self, name: str) -> FieldSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise ConfigError(f"header type {self.name!r} has no field {name!r}")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def instantiate(self, **values: int) -> "Header":
        """Create a header instance, defaulting unset fields to zero."""
        return Header(self, dict(values))


class Header:
    """A concrete header: a type plus field values.

    Values are plain ints, range-checked against field widths on set.
    A copy shares its source's value dict until either side writes, and
    :meth:`__setitem__`, the only writer, takes a private dict first.
    The parser and the deparser read ``_values`` directly.
    """

    __slots__ = ("type", "_values", "_shared")

    def __init__(self, header_type: HeaderType, values: dict[str, int] | None = None):
        self.type = header_type
        self._values: dict[str, int] = dict(header_type._zero_values)
        self._shared = False
        if values:
            for name, value in values.items():
                self[name] = value

    def __getitem__(self, name: str) -> int:
        if name not in self._values:
            raise ConfigError(
                f"header {self.type.name!r} has no field {name!r}"
            )
        return self._values[name]

    def __setitem__(self, name: str, value: int) -> None:
        max_value = self.type._max_by_name.get(name)
        if max_value is None:
            self.type.field(name)  # raises the no-such-field ConfigError
        if not 0 <= value <= max_value:
            spec = self.type.field(name)
            raise ConfigError(
                f"value {value} out of range for {self.type.name}.{name} "
                f"({spec.width_bits} bits)"
            )
        if self._shared:
            self._values = dict(self._values)
            self._shared = False
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def items(self):
        return self._values.items()

    def copy(self) -> "Header":
        # Values in an existing header already passed range validation,
        # so the copy skips __init__ and shares the value dict; both
        # sides are marked shared, so whichever writes first unshares.
        clone = Header.__new__(Header)
        clone.type = self.type
        clone._values = self._values
        clone._shared = self._shared = True
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Header):
            return NotImplemented
        return self.type == other.type and self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in self._values.items())
        return f"<{self.type.name} {inner}>"


# --- Standard header formats -------------------------------------------------

ETHERNET = HeaderType(
    "ethernet",
    (
        FieldSpec("dst_mac", 48),
        FieldSpec("src_mac", 48),
        FieldSpec("ethertype", 16),
    ),
)

IPV4 = HeaderType(
    "ipv4",
    (
        FieldSpec("version_ihl", 8),
        FieldSpec("dscp_ecn", 8),
        FieldSpec("total_length", 16),
        FieldSpec("identification", 16),
        FieldSpec("flags_fragment", 16),
        FieldSpec("ttl", 8),
        FieldSpec("protocol", 8),
        FieldSpec("checksum", 16),
        FieldSpec("src_ip", 32),
        FieldSpec("dst_ip", 32),
    ),
)

UDP = HeaderType(
    "udp",
    (
        FieldSpec("src_port", 16),
        FieldSpec("dst_port", 16),
        FieldSpec("length", 16),
        FieldSpec("checksum", 16),
    ),
)

COFLOW_HEADER = HeaderType(
    "coflow",
    (
        FieldSpec("coflow_id", 32),
        FieldSpec("flow_id", 32),
        FieldSpec("seq", 32),
        FieldSpec("opcode", 8),
        FieldSpec("element_count", 8),
        FieldSpec("element_width_bytes", 8),
        FieldSpec("worker_id", 16),
        FieldSpec("round", 16),
    ),
)

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17
COFLOW_UDP_PORT = 0x4D43  # "MC": the in-network compute service port

# --- coflow opcodes -----------------------------------------------------------
# Wire-level operation codes carried in the coflow header's ``opcode``
# field.  Defined here (not in repro.apps) because switch models also
# interpret some of them (e.g. FLUSH finishing a merge-scheduled flow).

OP_DATA = 0
"""Payload-bearing packet of an input flow."""

OP_FLUSH = 1
"""End-of-flow marker: tells streaming operators to emit partials and
order-preserving schedulers that the flow is complete."""

OP_GET = 2
"""Key/value read request."""

OP_PUT = 3
"""Key/value write request."""

OP_REPLY = 4
"""Switch-generated response."""

OP_RESULT = 5
"""Switch-generated result of an aggregate computation."""


def standard_stack(
    src_ip: int = 0,
    dst_ip: int = 0,
    src_port: int = 0,
    dst_port: int = COFLOW_UDP_PORT,
) -> list[Header]:
    """Ethernet/IPv4/UDP headers wired together with correct next-protocol
    fields, ready to prepend to an application header."""
    eth = ETHERNET.instantiate(ethertype=ETHERTYPE_IPV4)
    ip = IPV4.instantiate(
        version_ihl=0x45, ttl=64, protocol=IP_PROTO_UDP, src_ip=src_ip, dst_ip=dst_ip
    )
    udp = UDP.instantiate(src_port=src_port, dst_port=dst_port)
    return [eth, ip, udp]


def coflow_header(
    coflow_id: int,
    flow_id: int,
    seq: int = 0,
    opcode: int = 0,
    element_count: int = 0,
    element_width_bytes: int = 4,
    worker_id: int = 0,
    round_: int = 0,
) -> Header:
    """Build a coflow application header."""
    return COFLOW_HEADER.instantiate(
        coflow_id=coflow_id,
        flow_id=flow_id,
        seq=seq,
        opcode=opcode,
        element_count=element_count,
        element_width_bytes=element_width_bytes,
        worker_id=worker_id,
        round=round_,
    )
