"""Packets and array payloads.

The paper's second architectural challenge is "breaking the notion that a
packet is a unit of information": a packet routinely carries an *array* of
data elements (weights, key/value pairs), each of which needs its own
match-action lookup.  :class:`ElementArray` models that payload explicitly,
and :class:`Packet` carries a header stack plus at most one element array,
along with the switch-internal metadata (ingress port, timestamps) that
forwarding decisions read and write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigError
from ..units import (
    ETHERNET_FCS_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    ETHERNET_OVERHEAD_BYTES,
)
from .headers import Header

_packet_ids = itertools.count()


def consume_packet_id() -> int:
    """Draw (and discard) the next global packet id.

    Fast paths that skip constructing a transient :class:`Packet` (e.g.
    the deparser bypass in ``Pipeline.service``) call this so the id
    stream — and therefore every downstream packet's id — is identical
    to the instrumented path's.
    """
    return next(_packet_ids)


@dataclass(slots=True)
class Element:
    """One data element of an array payload: a key and a value.

    Pure-value payloads (e.g. ML weights) use ``key`` as the element index;
    key/value workloads (caches, joins) use both.
    """

    key: int
    value: int


class ElementArray:
    """A fixed-element-width array payload.

    ``element_width_bytes`` covers one key+value pair on the wire; the
    goodput math in :mod:`repro.coflow.metrics` uses it to compare packing
    schemes (1 element per packet vs 16).
    """

    def __init__(
        self,
        elements: Iterable[Element] | Sequence[tuple[int, int]],
        element_width_bytes: int = 8,
    ) -> None:
        if element_width_bytes <= 0:
            raise ConfigError(
                f"element width must be positive, got {element_width_bytes}"
            )
        converted: list[Element] = []
        for item in elements:
            if isinstance(item, Element):
                converted.append(item)
            else:
                key, value = item
                converted.append(Element(key, value))
        self.elements = converted
        self.element_width_bytes = element_width_bytes

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index: int) -> Element:
        return self.elements[index]

    @property
    def width_bytes(self) -> int:
        """Total payload bytes occupied by the array."""
        return len(self.elements) * self.element_width_bytes

    def keys(self) -> list[int]:
        return [e.key for e in self.elements]

    def values(self) -> list[int]:
        return [e.value for e in self.elements]

    def copy(self) -> "ElementArray":
        return ElementArray(
            [Element(e.key, e.value) for e in self.elements],
            self.element_width_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ElementArray n={len(self.elements)} w={self.element_width_bytes}B>"


@dataclass(slots=True)
class PacketMetadata:
    """Switch-internal metadata that travels with a packet but not on the wire."""

    ingress_port: int | None = None
    egress_port: int | None = None
    egress_ports: tuple[int, ...] = ()  # multicast fan-out, if any
    ingress_pipeline: int | None = None
    egress_pipeline: int | None = None
    central_pipeline: int | None = None
    lane: int | None = None  # ADCP demux lane within a port
    arrival_time: float = 0.0
    departure_time: float = 0.0
    origin_time: float | None = None
    """First transmission time at the originating host NIC, surviving
    per-hop meta resets (:func:`~repro.fabric.link.switch_handoff`) so
    serve mode can report end-to-end latency.  Result packets emitted by
    an aggregation inherit the origin of the data packet that completed
    the chunk.  None for runs that don't track end-to-end latency."""
    recirculations: int = 0
    drop_reason: str | None = None
    central_done: bool = False
    """Whether the app's stateful (central) hook already ran on this packet."""
    span: int | None = None
    """Span id attached by head-based sampling at injection, surviving
    per-hop meta resets (:func:`~repro.fabric.link.switch_handoff`) so one
    sampled packet — and every ``OP_RESULT`` emission it triggers, which
    inherits the id — yields a causal cross-switch trace.  None for
    unsampled packets; see :mod:`repro.telemetry.spans`."""

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None


class Packet:
    """A header stack plus an optional array payload plus metadata.

    ``extra_payload_bytes`` accounts for opaque payload beyond the element
    array (padding, application framing) so total sizes can match any wire
    format under study.
    """

    def __init__(
        self,
        headers: Sequence[Header],
        payload: ElementArray | None = None,
        extra_payload_bytes: int = 0,
    ) -> None:
        if extra_payload_bytes < 0:
            raise ConfigError(
                f"extra payload must be non-negative, got {extra_payload_bytes}"
            )
        self._headers = list(headers)
        self._payload = payload
        self.extra_payload_bytes = extra_payload_bytes
        self.meta = PacketMetadata()
        self.packet_id = next(_packet_ids)
        # Size, header-index, and parser-verdict caches, rebuilt lazily
        # after the headers or payload attribute is reassigned (the only
        # mutations the pipeline performs).
        self._sizes: tuple[int, int, int, int] | None = None
        self._by_type: dict[str, Header] | None = None
        self._accepts_memo: tuple | None = None

    # --- header access -------------------------------------------------------

    @property
    def headers(self) -> list[Header]:
        return self._headers

    @headers.setter
    def headers(self, value) -> None:
        self._headers = value if type(value) is list else list(value)
        self._sizes = None
        self._by_type = None
        self._accepts_memo = None

    @property
    def payload(self) -> ElementArray | None:
        return self._payload

    @payload.setter
    def payload(self, value: ElementArray | None) -> None:
        self._payload = value
        self._sizes = None
        self._accepts_memo = None

    def _header_index(self) -> dict[str, Header]:
        """First-header-of-each-type lookup table (parse/deparse hot path)."""
        index = self._by_type
        if index is None:
            index = {}
            for header in self._headers:
                index.setdefault(header.type.name, header)
            self._by_type = index
        return index

    def header(self, type_name: str) -> Header:
        """Return the first header of the given type name."""
        header = self._header_index().get(type_name)
        if header is None:
            raise ConfigError(f"packet has no {type_name!r} header")
        return header

    def has_header(self, type_name: str) -> bool:
        return type_name in self._header_index()

    # --- sizes ----------------------------------------------------------------

    def _size_tuple(self) -> tuple[int, int, int, int]:
        sizes = self._sizes
        if sizes is None:
            header_bytes = sum(h.type._width_bytes for h in self._headers)
            payload = self._payload
            payload_bytes = (
                payload.width_bytes if payload else 0
            ) + self.extra_payload_bytes
            frame = max(
                header_bytes + payload_bytes + ETHERNET_FCS_BYTES,
                ETHERNET_MIN_FRAME_BYTES,
            )
            sizes = self._sizes = (
                header_bytes,
                payload_bytes,
                frame,
                frame + ETHERNET_OVERHEAD_BYTES,
            )
        return sizes

    @property
    def header_bytes(self) -> int:
        return self._size_tuple()[0]

    @property
    def payload_bytes(self) -> int:
        return self._size_tuple()[1]

    @property
    def frame_bytes(self) -> int:
        """Ethernet frame size, padded to the 64 B minimum, including FCS."""
        return self._size_tuple()[2]

    @property
    def wire_bytes(self) -> int:
        """Wire footprint: frame plus preamble and inter-frame gap."""
        return self._size_tuple()[3]

    @property
    def goodput_bytes(self) -> int:
        """Application-useful bytes: the element array only."""
        return self._payload.width_bytes if self._payload else 0

    @property
    def element_count(self) -> int:
        payload = self._payload
        return len(payload.elements) if payload else 0

    def copy(self) -> "Packet":
        """Deep copy with fresh packet id and reset metadata."""
        clone = Packet(
            [h.copy() for h in self._headers],
            self._payload.copy() if self._payload else None,
            self.extra_payload_bytes,
        )
        # A copy starts bit-identical, so it can share the parent's size
        # tuple and parser verdict (immutable; both sides invalidate on
        # header mutation).
        clone._sizes = self._sizes
        clone._accepts_memo = self._accepts_memo
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = "/".join(h.type.name for h in self.headers)
        return (
            f"<Packet #{self.packet_id} {names} "
            f"{self.frame_bytes}B elems={self.element_count}>"
        )
