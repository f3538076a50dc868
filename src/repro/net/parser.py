"""Programmable packet parsing.

Parsers in programmable switches are state machines over a *parse graph*
(Gibb et al., cited by the paper as [11]): each state extracts one header
and selects the next state from a field value.  The paper leans on the
observation that "parsing efficiency is linked to the complexity of
structure within packets rather than port speed", which this model makes
measurable: the parser reports how many states it visited and how many
bytes it examined per packet.

The ADCP extension is array extraction: a terminal state may extract the
packet's :class:`~repro.net.packet.ElementArray` into a PHV array view, up
to a configurable width, which is the entry point for array processing in
the pipeline (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError, ParseError
from .headers import HeaderType
from .packet import Packet
from .phv import PHV, PHVLayout, containers_needed


@dataclass
class ParseState:
    """One state of the parse graph.

    Attributes:
        name: State label; ``"accept"`` and ``"reject"`` are reserved.
        header_type: Header extracted on entering this state (None for a
            metadata-only state).
        select_field: Field of the just-extracted header whose value picks
            the next state.  None means unconditional transition.
        transitions: Mapping from select-field value to next state name;
            the ``default`` key gives the fallback.
        extract_array: When set, extract the packet's element array into a
            PHV array view of this name.
        max_array_elements: Cap on extracted elements (the hardware's lane
            width); extra elements raise ParseError, as the program and the
            packet format must agree.
    """

    name: str
    header_type: HeaderType | None = None
    select_field: str | None = None
    transitions: dict[int | str, str] = field(default_factory=dict)
    extract_array: str | None = None
    max_array_elements: int = 16

    def next_state(self, selector: int | None) -> str:
        if self.select_field is None or selector is None:
            return str(self.transitions.get("default", "accept"))
        if selector in self.transitions:
            return str(self.transitions[selector])
        if "default" in self.transitions:
            return str(self.transitions["default"])
        return "reject"


class ParseGraph:
    """A named collection of parse states with a start state."""

    RESERVED = ("accept", "reject")

    def __init__(self, start: str = "start") -> None:
        self.start = start
        self._states: dict[str, ParseState] = {}

    def add(self, state: ParseState) -> "ParseGraph":
        if state.name in self.RESERVED:
            raise ConfigError(f"state name {state.name!r} is reserved")
        if state.name in self._states:
            raise ConfigError(f"duplicate parse state {state.name!r}")
        self._states[state.name] = state
        return self

    def state(self, name: str) -> ParseState:
        if name not in self._states:
            raise ConfigError(f"parse graph has no state {name!r}")
        return self._states[name]

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __len__(self) -> int:
        return len(self._states)

    def validate(self) -> None:
        """Check every transition targets an existing or terminal state."""
        if self.start not in self._states:
            raise ConfigError(f"start state {self.start!r} is not defined")
        for state in self._states.values():
            for target in state.transitions.values():
                target_name = str(target)
                if target_name not in self._states and target_name not in self.RESERVED:
                    raise ConfigError(
                        f"state {state.name!r} targets unknown state {target_name!r}"
                    )

    @classmethod
    def standard_coflow_graph(cls, array_name: str = "elems", max_elements: int = 16) -> "ParseGraph":
        """Parse graph for the Ethernet/IPv4/UDP/coflow stack.

        Terminal coflow state extracts the element array (width-capped),
        which is exactly the structure the in-network apps ship.
        """
        from .headers import (
            COFLOW_HEADER,
            COFLOW_UDP_PORT,
            ETHERNET,
            ETHERTYPE_IPV4,
            IP_PROTO_UDP,
            IPV4,
            UDP,
        )

        graph = cls(start="ethernet")
        graph.add(
            ParseState(
                "ethernet",
                header_type=ETHERNET,
                select_field="ethertype",
                transitions={ETHERTYPE_IPV4: "ipv4", "default": "accept"},
            )
        )
        graph.add(
            ParseState(
                "ipv4",
                header_type=IPV4,
                select_field="protocol",
                transitions={IP_PROTO_UDP: "udp", "default": "accept"},
            )
        )
        graph.add(
            ParseState(
                "udp",
                header_type=UDP,
                select_field="dst_port",
                transitions={COFLOW_UDP_PORT: "coflow", "default": "accept"},
            )
        )
        graph.add(
            ParseState(
                "coflow",
                header_type=COFLOW_HEADER,
                transitions={"default": "accept"},
                extract_array=array_name,
                max_array_elements=max_elements,
            )
        )
        graph.validate()
        return graph


@dataclass
class ParseResult:
    """Outcome of parsing one packet."""

    phv: PHV
    accepted: bool
    states_visited: int
    bytes_examined: int
    headers_extracted: tuple[str, ...]


#: Interned accept-walk signatures (see Parser._accept_sig).
_ACCEPT_SIGS: dict = {}


class Parser:
    """Executes a parse graph against packets, producing PHVs.

    ``max_depth`` bounds state visits (loop protection).  When
    ``array_capable`` is False (classic RMT), array extraction states fall
    back to extracting only the first element as a scalar — this models
    RMT's 1 key : 1 packet restriction and is what the Figure 3/6
    experiments compare against.
    """

    def __init__(
        self,
        graph: ParseGraph,
        layout: PHVLayout | None = None,
        max_depth: int = 32,
        array_capable: bool = True,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.layout = layout or PHVLayout()
        self.max_depth = max_depth
        self.array_capable = array_capable
        self.packets_parsed = 0
        self.packets_rejected = 0
        # Per-state extraction plans, precomputed once: the PHV-qualified
        # name, bare field name, container class, and container count of
        # every field.  The parse loop walks these instead of re-deriving
        # strings and container math per packet.
        self._field_plans: dict[str, tuple] = {}
        for state_name in graph._states:
            state = graph._states[state_name]
            if state.header_type is not None:
                header_type = state.header_type
                rows = [
                    (
                        f"{header_type.name}.{spec.name}",
                        spec.name,
                        *containers_needed(spec.width_bits),
                    )
                    for spec in header_type.fields
                ]
                totals: dict = {}
                for _, _, cls, count in rows:
                    totals[cls] = totals.get(cls, 0) + count
                self._field_plans[state_name] = (rows, tuple(totals.items()))
        # Compiled accept program: one flat tuple per state, so the
        # verdict-only walk touches no ParseState attributes or method
        # calls.  Row: (header name or None, select field, transitions
        # with stringified targets, default target, array cap or -1).
        self._accept_prog: dict[str, tuple] = {}
        for state_name, state in graph._states.items():
            transitions = {k: str(v) for k, v in state.transitions.items()}
            self._accept_prog[state_name] = (
                state.header_type.name if state.header_type else None,
                state.select_field,
                transitions,
                transitions.get("default", "accept"),
                state.max_array_elements
                if state.extract_array is not None
                else -1,
            )
        # Structural signature of the verdict-only walk: two parsers with
        # the same signature accept/reject/raise on exactly the same
        # packets, so a verdict memoized on the packet by one is valid
        # for the other (cross-pipeline reuse).  Interned so the hot
        # check is a single identity comparison.
        signature = (
            graph.start,
            max_depth,
            array_capable,
            tuple(
                sorted(
                    (
                        name,
                        row[0],
                        row[1],
                        tuple(sorted(row[2].items(), key=repr)),
                        row[3],
                        row[4],
                    )
                    for name, row in self._accept_prog.items()
                )
            ),
        )
        self._accept_sig = _ACCEPT_SIGS.setdefault(signature, signature)

    def parse(self, packet: Packet) -> ParseResult:
        """Parse ``packet`` into a fresh PHV."""
        phv = PHV(self.layout)
        accepted, visited, bytes_examined, extracted = self._parse_into(
            phv, packet
        )
        if accepted:
            self.packets_parsed += 1
        else:
            self.packets_rejected += 1
        return ParseResult(phv, accepted, visited, bytes_examined, extracted)

    def _parse_into(
        self, phv: PHV, packet: Packet
    ) -> tuple[bool, int, int, tuple[str, ...]]:
        """Graph walk + container fill into ``phv``, without accounting.

        Shared by :meth:`parse` (which adds the parsed/rejected counts)
        and :class:`LazyPHV` materialization (whose verdict and counts
        were already taken by :meth:`accepts`, so filling must not count
        the packet a second time).
        """
        headers_by_type = packet._header_index()
        visited = 0
        bytes_examined = 0
        extracted: list[str] = []
        state_name = self.graph.start
        states = self.graph._states
        plans = self._field_plans

        while state_name not in ParseGraph.RESERVED:
            if visited >= self.max_depth:
                raise ParseError(
                    f"parse depth exceeded {self.max_depth} (loop in graph?)"
                )
            state = states.get(state_name)
            if state is None:
                state = self.graph.state(state_name)  # raises ConfigError
            visited += 1
            selector: int | None = None

            header_type = state.header_type
            if header_type is not None:
                header = headers_by_type.get(header_type.name)
                if header is None:
                    return False, visited, bytes_examined, tuple(extracted)
                bytes_examined += header_type.width_bytes
                rows, totals = plans[state_name]
                phv._allocate_planned(rows, totals, header._values)
                extracted.append(header_type.name)
                if state.select_field is not None:
                    selector = header[state.select_field]

            if state.extract_array is not None:
                self._extract_array(state, packet, phv)
                if packet.payload is not None:
                    bytes_examined += packet.payload.width_bytes

            state_name = state.next_state(selector)

        accepted = state_name == "accept"
        return accepted, visited, bytes_examined, tuple(extracted)

    def accepts(self, packet: Packet) -> bool:
        """Walk the parse graph without materializing a PHV.

        The forwarding fast path (no application hook, no tracing) only
        needs the accept/reject verdict; this performs the identical
        graph walk — same depth bound, same array-width check, same
        ``packets_parsed``/``packets_rejected`` accounting — while
        skipping container allocation entirely.  Any packet this method
        accepts (or rejects, or raises on), :meth:`parse` treats the
        same way.

        The verdict is memoized on the packet (invalidated when its
        headers or payload are reassigned — the only mutations the
        pipeline performs) so the egress pass, recirculations, and
        multicast copies skip the walk; a hit still performs the same
        parsed/rejected accounting.  Walks that raise are never
        memoized, so repeat offenders raise identically.
        """
        sig = self._accept_sig
        memo = packet._accepts_memo
        if memo is not None and memo[0] is sig:
            accepted = memo[1]
            if accepted:
                self.packets_parsed += 1
            else:
                self.packets_rejected += 1
            return accepted
        headers_by_type = packet._header_index()
        prog = self._accept_prog
        max_depth = self.max_depth
        array_capable = self.array_capable
        visited = 0
        state_name = self.graph.start

        while state_name != "accept" and state_name != "reject":
            if visited >= max_depth:
                raise ParseError(
                    f"parse depth exceeded {max_depth} (loop in graph?)"
                )
            row = prog.get(state_name)
            if row is None:
                self.graph.state(state_name)  # raises ConfigError
            visited += 1
            header_name, select_field, transitions, default, array_max = row
            selector: int | None = None

            if header_name is not None:
                header = headers_by_type.get(header_name)
                if header is None:
                    self.packets_rejected += 1
                    packet._accepts_memo = (sig, False)
                    return False
                if select_field is not None:
                    selector = header[select_field]

            if array_max >= 0 and array_capable:
                payload = packet.payload
                if payload is not None and len(payload) > array_max:
                    raise ParseError(
                        f"packet carries {len(payload)} elements but state "
                        f"{state_name!r} extracts at most {array_max}"
                    )

            if selector is None:
                state_name = default
            else:
                state_name = (
                    transitions.get(selector)
                    or transitions.get("default")
                    or "reject"
                )

        accepted = state_name == "accept"
        if accepted:
            self.packets_parsed += 1
        else:
            self.packets_rejected += 1
        packet._accepts_memo = (sig, accepted)
        return accepted

    def lazy_phv(self, packet: Packet) -> "LazyPHV":
        """A PHV whose container fill is deferred until first access.

        Pair with :meth:`accepts`: the verdict and parser accounting come
        from the walk, and the containers are only materialized if the
        application hook actually reads or writes the PHV.  Hooks that
        work off the packet alone (common for array apps, which consume
        the payload directly) never pay for allocation at all.
        """
        return LazyPHV(self, packet)

    def _extract_array(self, state: ParseState, packet: Packet, phv: PHV) -> None:
        name = state.extract_array
        assert name is not None
        payload = packet.payload
        if payload is None or len(payload) == 0:
            return
        if self.array_capable:
            if len(payload) > state.max_array_elements:
                raise ParseError(
                    f"packet carries {len(payload)} elements but state "
                    f"{state.name!r} extracts at most {state.max_array_elements}"
                )
            phv._allocate_array_planned(f"{name}.key", payload.key_column)
            phv._allocate_array_planned(f"{name}.value", payload.value_column)
        else:
            # Classic RMT: only the first element is liftable as scalars.
            phv.allocate(f"{name}.key[0]", 32, payload.key_column[0])
            phv.allocate(f"{name}.value[0]", 32, payload.value_column[0])
            phv._values[f"{name}.key.length"] = 1
            phv._values[f"{name}.value.length"] = 1


class LazyPHV(PHV):
    """A PHV that materializes its containers on first touch.

    Created by :meth:`Parser.lazy_phv` on the untraced hook path after
    :meth:`Parser.accepts` has already delivered the verdict and taken
    the parsed/rejected counts.  Every field accessor and mutator below
    first runs the parser's fill walk (:meth:`Parser._parse_into`, which
    performs no accounting) and then behaves as a plain PHV; intrinsic
    metadata reads stay lazy because they never depend on the fill.

    A hook that never touches the PHV leaves it empty and clean, which is
    indistinguishable from an eagerly parsed PHV the hook did not modify:
    the pipeline's deparse-skip only consults ``_dirty``.
    """

    def __init__(self, parser: Parser, packet: Packet) -> None:
        super().__init__(parser.layout)
        self._parser: Parser | None = parser
        self._packet: Packet | None = packet

    def _materialize(self) -> None:
        parser = self._parser
        if parser is not None:
            packet = self._packet
            self._parser = None
            self._packet = None
            parser._parse_into(self, packet)

    def __contains__(self, name: str) -> bool:
        self._materialize()
        return PHV.__contains__(self, name)

    def __getitem__(self, name: str) -> int:
        self._materialize()
        return PHV.__getitem__(self, name)

    def __setitem__(self, name: str, value: int) -> None:
        self._materialize()
        PHV.__setitem__(self, name, value)

    def get(self, name: str, default: int | None = None) -> int | None:
        self._materialize()
        return PHV.get(self, name, default)

    def fields(self):
        self._materialize()
        return PHV.fields(self)

    def used(self, cls) -> int:
        self._materialize()
        return PHV.used(self, cls)

    @property
    def used_bits(self) -> int:
        self._materialize()
        return PHV.used_bits.fget(self)

    def allocate(self, name: str, width_bits: int, value: int = 0) -> None:
        self._materialize()
        PHV.allocate(self, name, width_bits, value)

    def allocate_array(
        self, name: str, length: int, element_width_bits: int = 32
    ) -> None:
        self._materialize()
        PHV.allocate_array(self, name, length, element_width_bits)

    def array_length(self, name: str) -> int:
        self._materialize()
        return PHV.array_length(self, name)

    def array(self, name: str) -> list[int]:
        self._materialize()
        return PHV.array(self, name)

    def set_array(self, name: str, values: list[int]) -> None:
        self._materialize()
        PHV.set_array(self, name, values)

    def set_meta(self, name: str, value) -> None:
        # Metadata is outside the container budget, but a dirty PHV is
        # deparsed — which reads every container — so mutation of any
        # kind forces the fill.
        self._materialize()
        PHV.set_meta(self, name, value)
