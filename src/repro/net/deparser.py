"""Deparsing: reassembling packets from PHVs.

"When data arrives at the end of the ingress pipeline, it is deparsed into
a packet taking the data modifications into consideration" (paper,
section 2).  The deparser here writes modified PHV fields back into the
packet's headers and, when an array view exists, rebuilds the element array
— which is how ADCP programs emit output coflows whose packets differ in
shape from the inputs.
"""

from __future__ import annotations

from operator import is_

from ..errors import DeparseError
from .headers import Header
from .packet import ElementArray, Packet
from .phv import PHV, _element_names


_MISSING = object()


class Deparser:
    """Rebuilds a packet from a PHV plus the original packet skeleton.

    The original packet supplies header ordering and any payload the parser
    never lifted; every field present in the PHV overwrites the packet's
    copy.  ``array_name`` selects which PHV array view (if any) becomes the
    output element array.
    """

    def __init__(self, array_name: str = "elems") -> None:
        self.array_name = array_name
        self.packets_deparsed = 0

    def deparse(self, phv: PHV, original: Packet) -> Packet:
        """Return a new packet reflecting PHV modifications.

        The parser lifts a header's own value objects into the PHV, so a
        field the hook left alone still holds the very object the header
        does.  Only a field holding another object is written, through
        the range-checked :meth:`Header.__setitem__`; a header with no
        such field keeps sharing its source's values, and an array the
        hook left alone keeps the source's payload.
        """
        phv_values = phv._values
        headers: list[Header] = []
        for header in original.headers:
            rebuilt = header.copy()
            values = header._values
            for phv_name, field_name in header.type._deparse_plan:
                value = phv_values.get(phv_name, _MISSING)
                if value is not _MISSING and value is not values[field_name]:
                    rebuilt[field_name] = value
            headers.append(rebuilt)

        payload = self._rebuild_array(phv, original)
        packet = Packet(headers, payload, original.extra_payload_bytes)
        packet.meta = original.meta
        if packet.has_header("coflow") and payload is not None:
            # Written only when it changes, so a clean deparse keeps
            # sharing the coflow header's values.
            coflow = packet.header("coflow")
            if coflow["element_count"] != len(payload):
                coflow["element_count"] = len(payload)
        self.packets_deparsed += 1
        return packet

    def _rebuild_array(self, phv: PHV, original: Packet) -> ElementArray | None:
        payload = original.payload
        width = payload.element_width_bytes if payload else 8
        override = phv.get_meta("payload_override")
        if override is not None:
            # A hook replaced the element set wholesale (e.g. an ingress
            # filter dropping elements): honor it over the parsed view,
            # whose array containers are fixed-length and cannot shrink.
            return ElementArray(override, width)
        key_array = f"{self.array_name}.key"
        value_array = f"{self.array_name}.value"
        if f"{key_array}.length" not in phv:
            # Parser never lifted the array; pass the payload through.
            return payload

        key_len = phv.array_length(key_array)
        if f"{value_array}.length" not in phv:
            raise DeparseError(
                f"PHV has keys for array {self.array_name!r} but no values"
            )
        value_len = phv.array_length(value_array)
        if key_len != value_len:
            raise DeparseError(
                f"array {self.array_name!r} key/value lengths differ "
                f"({key_len} vs {value_len})"
            )
        phv_values = phv._values
        keys = tuple(phv_values[n] for n in _element_names(key_array, key_len))
        values = tuple(
            phv_values[n] for n in _element_names(value_array, value_len)
        )
        if payload is not None:
            if len(payload) > key_len:
                # A scalar parser lifted only the head of the array; the
                # tail it never lifted passes through.
                keys += payload.key_column[key_len:]
                values += payload.value_column[key_len:]
            if _same_objects(keys, payload.key_column) and _same_objects(
                values, payload.value_column
            ):
                return payload
        return ElementArray.from_columns(keys, values, width)


def _same_objects(column: tuple, lifted: tuple) -> bool:
    """Whether two columns hold the very same value objects."""
    return len(column) == len(lifted) and all(map(is_, column, lifted))
