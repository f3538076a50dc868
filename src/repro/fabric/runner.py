"""The fabric runner: build, wire, drive, and account a multi-switch run.

One call to :func:`run_fabric` turns a topology spec plus a workload name
into a complete datacenter simulation on a **single** discrete-event
kernel: every switch (RMT or ADCP per ``target``) is constructed against
the shared :class:`~repro.sim.event.Simulator`, inter-switch
:class:`~repro.fabric.link.Link` objects bridge each egress port to the
peer's ingress, per-switch selectors resolve equal-cost next hops, and a
:class:`~repro.fabric.placement.FabricPlacement` decides which switch
hosts each coflow's aggregation state.  The kernel drains once; then
every switch is finalized and the run is verified end to end (every
expected result packet arrived, aggregate values are exact).

The output :class:`FabricRun` writes the one run-ledger format — one
section per switch plus a ``fabric`` section carrying link and
coflow-completion series, and the run's own ``totals`` — so fabric runs
plug directly into ``repro diff`` and the campaign aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..errors import ConfigError, SimulationError
from ..net.headers import OP_DATA
from ..net.packet import Packet
from ..sim.event import CollectorPause, Simulator
from ..telemetry.ledger import SwitchSection, build_ledger, point
from ..telemetry.monitor import DEFAULT_INTERVAL_NS
from ..units import GBPS
from .app import FabricAggregateApp, HostedCoflow
from .link import HostEndpoint, Link, switch_handoff
from .placement import make_placement
from .routing import make_selector
from .topology import Topology, host_of_ip, parse_topology
from .workloads import build_workload

#: Every fabric port (host NICs and switch-to-switch wires) runs at this
#: speed; serialization is paid at the sending TxPort.
PORT_SPEED_BPS = 100 * GBPS

#: Default one-way propagation delay per hop (~60 m of fiber).
DEFAULT_LINK_LATENCY_NS = 300.0

#: Default flowlet idle gap; larger than the per-hop latency spread so
#: flowlet switching stays reordering-free on these topologies.
DEFAULT_FLOWLET_GAP_NS = 500.0

_NS = 1e-9


@dataclass
class FabricRun:
    """Everything one fabric run produced, plus its reporting helpers."""

    topology: Topology
    workload: str
    target: str
    placement: str
    routing: str
    seed: int
    params: dict
    sections: list[SwitchSection]
    links: dict[str, Link]
    hosts: dict[int, HostEndpoint]
    placement_map: dict[int, str]
    cct_s: dict[int, float]
    duration_s: float
    events: int
    injected: int
    events_coalesced: int = 0
    selectors: dict = field(default_factory=dict)
    span_coflows: dict = field(default_factory=dict)
    """Sampled span id -> coflow label, filled when the run carried a
    span recorder (see :func:`inject_arrivals`)."""
    app_factory: object = None
    """The workload's per-switch app factory, when it carried one
    (``stateful-*`` workloads) — exposes the app instances the run
    built, for post-run counter harvesting."""

    # --- derived ------------------------------------------------------------------

    @property
    def max_cct_s(self) -> float:
        return max(self.cct_s.values()) if self.cct_s else 0.0

    @property
    def delivered_to_hosts(self) -> int:
        return sum(len(h.received) for h in self.hosts.values())

    @property
    def transit_packets(self) -> int:
        """Packets that crossed at least one switch-to-switch wire."""
        return sum(
            link.packets
            for name, link in self.links.items()
            if "->h" not in name
        )

    @property
    def recirculated(self) -> int:
        return sum(s.result.recirculated_packets for s in self.sections)

    # --- reporting ----------------------------------------------------------------

    def _fabric_section(self) -> dict:
        series = {}
        for name in sorted(self.links):
            link = self.links[name]
            series[f"link.{name}.packets"] = point(link.packets)
            series[f"link.{name}.wire_bytes"] = point(link.wire_bytes)
        for coflow_id in sorted(self.cct_s):
            series[f"cct.c{coflow_id}_s"] = point(self.cct_s[coflow_id])
        if self.cct_s:
            series["cct.max_s"] = point(self.max_cct_s)
        series["transit.packets"] = point(self.transit_packets)
        return {
            "label": "fabric",
            "duration_s": self.duration_s,
            "delivered": self.delivered_to_hosts,
            "consumed": 0,
            "recirculated": self.recirculated,
            "samples": len(series),
            "cct_s": {str(k): v for k, v in self.cct_s.items()},
            "max_cct_s": self.max_cct_s,
            "series": series,
            "counters": {},
        }

    def totals(self) -> dict:
        """The run's own numbers, counted once for the whole fabric."""
        return {
            "duration_s": self.duration_s,
            "delivered": self.delivered_to_hosts,
            "recirculated": self.recirculated,
            "max_cct_s": self.max_cct_s,
        }

    def ledger(self) -> dict:
        """The run as a run-ledger document (diffable)."""
        sections = [section.to_json() for section in self.sections]
        sections.append(self._fabric_section())
        return build_ledger(
            f"fabric:{self.workload}@{self.topology.name}:{self.target}",
            dict(self.params),
            sections,
            totals=self.totals(),
        )

    def summary(self) -> dict:
        """Flat JSON summary for the CLI's ``--json`` mode."""
        return {
            "topology": self.topology.name,
            "workload": self.workload,
            "target": self.target,
            "placement": self.placement,
            "routing": self.routing,
            "seed": self.seed,
            "switches": len(self.sections),
            "hosts": len(self.hosts),
            "injected": self.injected,
            "delivered_to_hosts": self.delivered_to_hosts,
            "transit_packets": self.transit_packets,
            "recirculated": self.recirculated,
            "placement_map": {
                str(k): v for k, v in sorted(self.placement_map.items())
            },
            "cct_s": {str(k): v for k, v in sorted(self.cct_s.items())},
            "max_cct_s": self.max_cct_s,
            "duration_s": self.duration_s,
            "events": self.events,
            "events_coalesced": self.events_coalesced,
        }

    def lines(self) -> list[str]:
        out = [
            f"fabric {self.topology.name} [{self.target}] — "
            f"{self.workload}, placement={self.placement}, "
            f"routing={self.routing}, seed={self.seed}",
            f"  {len(self.sections)} switches, {len(self.hosts)} hosts, "
            f"{self.injected} packets injected, "
            f"{self.delivered_to_hosts} delivered to hosts, "
            f"{self.transit_packets} switch-to-switch transits, "
            f"{self.recirculated} recirculations",
        ]
        for coflow_id in sorted(self.cct_s):
            placed = self.placement_map.get(coflow_id)
            where = f" @ {placed}" if placed else ""
            out.append(
                f"  coflow {coflow_id}{where}: "
                f"CCT {self.cct_s[coflow_id] * 1e9:.1f} ns"
            )
        out.append(
            f"  duration {self.duration_s * 1e9:.1f} ns, "
            f"{self.events} events dispatched"
        )
        return out


# --- construction ------------------------------------------------------------------


def _rmt_switch(node, app, telemetry, sim):
    from ..rmt.config import RMTConfig
    from ..rmt.switch import RMTSwitch

    pipelines = 2 if node.num_ports % 2 == 0 and node.num_ports > 1 else 1
    config = RMTConfig(
        num_ports=node.num_ports,
        port_speed_bps=PORT_SPEED_BPS,
        pipelines=pipelines,
        min_wire_packet_bytes=84.0,
        frequency_hz=1.25e9,
    )
    return RMTSwitch(config, app, telemetry=telemetry, sim=sim, name=node.name)


def _adcp_switch(node, app, telemetry, sim):
    from ..adcp.config import ADCPConfig
    from ..adcp.switch import ADCPSwitch

    config = ADCPConfig(
        num_ports=node.num_ports,
        port_speed_bps=PORT_SPEED_BPS,
        demux_factor=1,
        central_pipelines=2,
    )
    return ADCPSwitch(config, app, telemetry=telemetry, sim=sim, name=node.name)


def _make_resolver(name, table, selector, placement_map, sim):
    """The per-switch next-hop function (see switch ``route_resolver``)."""

    def resolve(packet: Packet):
        now = sim.now
        if placement_map and packet.has_header("coflow"):
            header = packet.header("coflow")
            if header["opcode"] == OP_DATA:
                hosting = placement_map.get(header["coflow_id"])
                if hosting is not None:
                    if hosting == name:
                        # The state lives here: leave the packet to the
                        # switch's own stateful steering (it claims it).
                        return None
                    return selector.choose(
                        packet, table.to_switch[hosting], now
                    )
        dst_ip = (
            packet.header("ipv4")["dst_ip"]
            if packet.has_header("ipv4")
            else 0
        )
        host = host_of_ip(dst_ip)
        if host is None or host not in table.to_host:
            return None
        candidates = table.to_host[host]
        if len(candidates) == 1:
            return candidates[0]
        return selector.choose(packet, candidates, now)

    return resolve


@dataclass
class FabricInstance:
    """A wired-but-idle fabric: switches, links, hosts on one kernel.

    Produced by :func:`build_fabric`; both the batch runner
    (:func:`run_fabric`) and serve mode (:mod:`repro.serve.runner`)
    drive one of these — construction order is shared so a given
    (topology, target, seed) wires bit-identically in either mode.
    """

    topology: Topology
    sim: Simulator
    switches: dict
    hubs: dict
    links: dict[str, Link]
    hosts: dict[int, HostEndpoint]
    selectors: dict
    latency_s: float

    def finalize_sections(self) -> list[SwitchSection]:
        """Finalize every switch (in name order) into ledger sections."""
        return [
            SwitchSection(
                name,
                self.hubs[name],
                self.switches[name].finalize(self.sim.now),
            )
            for name in self.topology.switch_names
        ]


def build_fabric(
    topo: Topology,
    *,
    target: str,
    routing: str = "ecmp",
    placement_map: dict[int, str] | None = None,
    hosted_by_switch: dict[str, list[HostedCoflow]] | None = None,
    app_factory=None,
    elements_per_packet: int = 1,
    link_latency_ns: float = DEFAULT_LINK_LATENCY_NS,
    flowlet_gap_ns: float = DEFAULT_FLOWLET_GAP_NS,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    make_telemetry=None,
    sim: Simulator | None = None,
    host_sink=None,
    spans=None,
) -> FabricInstance:
    """Construct and wire every switch, link, and host NIC of ``topo``.

    ``host_sink`` optionally wraps each :class:`HostEndpoint`'s deliver
    function (``host_sink(endpoint) -> deliver``) so a caller can observe
    deliveries — serve mode hooks per-window latency accounting here —
    without changing what the endpoint records.

    ``spans`` optionally shares one
    :class:`~repro.telemetry.spans.SpanRecorder` across every switch and
    link, so a sampled packet's hops line up in one fabric-wide stream
    (docs/SPANS.md); the sampling decision itself happens in
    :func:`inject_arrivals`.
    """
    if target not in ("rmt", "adcp"):
        raise ConfigError(
            f"fabric target must be rmt or adcp, got {target!r}"
        )
    if link_latency_ns < 0:
        raise ConfigError(
            f"link latency must be >= 0, got {link_latency_ns}"
        )
    placement_map = placement_map or {}
    hosted_by_switch = hosted_by_switch or {}
    if make_telemetry is None:

        def make_telemetry():
            from ..telemetry import Telemetry

            return Telemetry.at_level("counters", interval_ns=interval_ns)

    if sim is None:
        sim = Simulator()
    build = _rmt_switch if target == "rmt" else _adcp_switch
    switches = {}
    hubs = {}
    for name in topo.switch_names:
        node = topo.switches[name]
        hosted = hosted_by_switch.get(name)
        if app_factory is not None:
            # Stateful workloads host their own app on every switch
            # (claims() gates by opcode, so transit still forwards).
            app = app_factory(name)
        else:
            app = (
                FabricAggregateApp(hosted, elements_per_packet)
                if hosted
                else None
            )
        hub = make_telemetry()
        hubs[name] = hub
        switches[name] = build(node, app, hub, sim)
        if spans is not None:
            switches[name].spans = spans

    tables = topo.routes()
    selectors = {}
    for name, switch in switches.items():
        selector = make_selector(routing, name, flowlet_gap_ns * _NS)
        selectors[name] = selector
        switch.route_resolver = _make_resolver(
            name, tables[name], selector, placement_map, sim
        )

    latency_s = link_latency_ns * _NS
    links: dict[str, Link] = {}
    for src, src_port, dst, dst_port in topo.edge_links():
        link = Link(
            f"{src}:{src_port}->{dst}",
            latency_s,
            switch_handoff(switches[dst], dst_port),
        )
        switches[src].port_sinks[src_port] = link
        if spans is not None:
            link.spans = spans
        links[link.name] = link
    hosts: dict[int, HostEndpoint] = {}
    for host_id in topo.host_ids:
        host = topo.hosts[host_id]
        endpoint = HostEndpoint(host_id)
        hosts[host_id] = endpoint
        deliver = endpoint.deliver if host_sink is None else host_sink(endpoint)
        link = Link(
            f"{host.switch}:{host.port}->h{host_id}",
            latency_s,
            deliver,
        )
        switches[host.switch].port_sinks[host.port] = link
        if spans is not None:
            link.spans = spans
        links[link.name] = link
    return FabricInstance(
        topology=topo,
        sim=sim,
        switches=switches,
        hubs=hubs,
        links=links,
        hosts=hosts,
        selectors=selectors,
        latency_s=latency_s,
    )


def inject_arrivals(
    fabric: FabricInstance,
    arrivals: dict[int, list[tuple[float, Packet]]],
    *,
    stamp_origin: bool = False,
    spans=None,
) -> dict[int, str]:
    """Schedule per-host NIC streams into their edge switches.

    Each (host-departure time, packet) pair arrives ``latency_s`` later
    at the switch.  All host streams are merged by arrival time first —
    within one host a stream's timestamps are strictly increasing, so
    the coalescing opportunity (several hosts transmitting on the same
    tick into the same edge switch) only exists *across* streams — and
    consecutive same-``(arrival, switch)`` runs are injected as one
    burst event.  The merge sort is stable, so equal-time entries keep
    host order: dispatch (and therefore every downstream event, traced
    or not) is identical to one ``inject`` per packet.

    ``stamp_origin`` records the host-departure time in
    ``meta.origin_time`` for end-to-end latency accounting (serve mode).

    ``spans`` optionally makes the head-based sampling decision here, at
    true injection (handoffs between switches never re-decide); the
    returned dict maps each sampled span id to its coflow label
    (``"c<id>"``), for critical-path attribution.  Empty without spans.
    """
    topo = fabric.topology
    latency_s = fabric.latency_s
    span_coflows: dict[int, str] = {}
    entries: list[tuple[float, object, Packet]] = []
    for host_id, stream in arrivals.items():
        switch = fabric.switches[topo.hosts[host_id].switch]
        for time, packet in stream:
            if stamp_origin:
                packet.meta.origin_time = time
            if spans is not None and spans.admit(packet):
                if packet.has_header("coflow"):
                    coflow_id = packet.header("coflow")["coflow_id"]
                    span_coflows.setdefault(
                        packet.meta.span, f"c{coflow_id}"
                    )
            arrival = time + latency_s
            packet.meta.arrival_time = arrival
            entries.append((arrival, switch, packet))
    entries.sort(key=lambda entry: entry[0])

    start = 0
    count = len(entries)
    while start < count:
        arrival, switch, _ = entries[start]
        end = start + 1
        while (
            end < count
            and entries[end][0] == arrival
            and entries[end][1] is switch
        ):
            end += 1
        if end - start == 1:
            switch.inject(entries[start][2], arrival)
        else:
            switch.inject_burst(
                [entry[2] for entry in entries[start:end]], arrival
            )
        start = end
    return span_coflows


def _verify_allreduce(run_workload, hosts) -> None:
    """Every worker got the exact aggregate: value[k] == (k+1) * workers."""
    for spec in run_workload.coflows:
        if not spec.aggregated:
            continue
        workers = len(spec.worker_hosts)
        for host in spec.worker_hosts:
            seen: dict[int, int] = {}
            for _, packet in hosts[host].results(spec.coflow_id):
                payload = packet.payload
                assert payload is not None
                for key, value in zip(payload.key_column, payload.value_column):
                    seen[key] = seen.get(key, 0) + 1
                    expect = (key + 1) * workers
                    if value != expect:
                        raise SimulationError(
                            f"coflow {spec.coflow_id} key {key} at "
                            f"h{host}: aggregate {value}, expected "
                            f"{expect}"
                        )
            keys = set(range(spec.vector_elements))
            if set(seen) != keys or any(n != 1 for n in seen.values()):
                raise SimulationError(
                    f"coflow {spec.coflow_id} at h{host}: result vector "
                    f"incomplete or duplicated ({len(seen)} of "
                    f"{spec.vector_elements} keys)"
                )


def place_workload(build, topo: Topology, *, target, placement, vector):
    """Build a coflow workload for ``target`` and place its aggregation.

    RMT's scalar stateful constraint forces one element per packet;
    ADCP packs up to its array width (section 3.2's whole point).
    ``build(elements_per_packet=...)`` returns a batch workload or a
    serve schedule; when it aggregates, the ``placement`` policy picks
    the switch that hosts each coflow.  Returns the workload, its
    elements per packet, coflow id -> hosting switch, and each switch's
    hosted coflows.
    """
    epp = 1 if target == "rmt" else min(16, vector)
    work = build(elements_per_packet=epp)
    placement_map: dict[int, str] = {}
    hosted_by_switch: dict[str, list[HostedCoflow]] = {}
    if work.aggregated:
        policy = make_placement(placement)
        for spec in work.coflows:
            where = policy.choose(spec.coflow_id, spec.worker_hosts, topo)
            placement_map[spec.coflow_id] = where
            hosted_by_switch.setdefault(where, []).append(
                HostedCoflow(
                    spec.coflow_id, spec.worker_hosts, spec.vector_elements
                )
            )
    return work, epp, placement_map, hosted_by_switch


def run_fabric(
    topology: str | Topology,
    workload: str = "fabric-allreduce",
    *,
    target: str = "adcp",
    placement: str = "ingress",
    routing: str = "ecmp",
    seed: int = 0,
    coflows: int = 2,
    vector: int = 64,
    load: float = 1.0,
    link_latency_ns: float = DEFAULT_LINK_LATENCY_NS,
    flowlet_gap_ns: float = DEFAULT_FLOWLET_GAP_NS,
    interval_ns: float = DEFAULT_INTERVAL_NS,
    make_telemetry=None,
    spans=None,
) -> FabricRun:
    """Simulate ``workload`` on ``topology`` and verify the outcome.

    ``make_telemetry`` is called once per switch and may return None (no
    per-switch observability) or a :class:`~repro.telemetry.Telemetry`
    hub; the default attaches a monitor-only hub so the ledger carries
    per-switch series.  ``spans`` optionally attaches one shared
    :class:`~repro.telemetry.spans.SpanRecorder` (sampled fabric-wide
    spans; the run's ``span_coflows`` then maps span ids to coflow
    labels).  All other knobs are plain data so campaign axes can sweep
    them.
    """
    if target not in ("rmt", "adcp"):
        raise ConfigError(
            f"fabric target must be rmt or adcp, got {target!r}"
        )
    if link_latency_ns < 0:
        raise ConfigError(
            f"link latency must be >= 0, got {link_latency_ns}"
        )
    topo = parse_topology(topology) if isinstance(topology, str) else topology
    # Build, admit and drain inside one collector pause: the workload's
    # packets are the run's largest allocation (docs/KERNEL.md).
    with CollectorPause():
        work, epp, placement_map, hosted_by_switch = place_workload(
            partial(
                build_workload,
                workload,
                topo,
                coflows=coflows,
                vector=vector,
                link_bps=PORT_SPEED_BPS,
                load=load,
                seed=seed,
            ),
            topo,
            target=target,
            placement=placement,
            vector=vector,
        )

        fabric = build_fabric(
            topo,
            target=target,
            routing=routing,
            placement_map=placement_map,
            hosted_by_switch=hosted_by_switch,
            app_factory=work.app_factory,
            elements_per_packet=epp,
            link_latency_ns=link_latency_ns,
            flowlet_gap_ns=flowlet_gap_ns,
            interval_ns=interval_ns,
            make_telemetry=make_telemetry,
            spans=spans,
        )
        sim = fabric.sim
        hosts = fabric.hosts
        span_coflows = inject_arrivals(fabric, work.arrivals, spans=spans)
        sim.run()

    sections = fabric.finalize_sections()

    cct_s: dict[int, float] = {}
    for (coflow_id, host_id), expected in sorted(work.expected.items()):
        done = hosts[host_id].completion_time(
            coflow_id, work.terminal_opcode, expected
        )
        cct_s[coflow_id] = max(cct_s.get(coflow_id, 0.0), done)
    if work.aggregated:
        _verify_allreduce(work, hosts)

    params = {
        "topology": topo.name,
        "workload": workload,
        "target": target,
        "placement": placement if work.aggregated else "",
        "routing": routing,
        "seed": seed,
        "coflows": coflows,
        "vector": vector,
        "load": load,
        "link_latency_ns": link_latency_ns,
        "interval_ns": interval_ns,
    }
    return FabricRun(
        topology=topo,
        workload=workload,
        target=target,
        placement=placement if work.aggregated else "",
        routing=routing,
        seed=seed,
        params=params,
        sections=sections,
        links=fabric.links,
        hosts=hosts,
        placement_map=placement_map,
        cct_s=cct_s,
        duration_s=sim.now,
        events=sim.events_dispatched,
        injected=work.injected_packets,
        events_coalesced=sim.events_coalesced,
        selectors=fabric.selectors,
        span_coflows=span_coflows,
        app_factory=work.app_factory,
    )
