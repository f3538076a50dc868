"""The serve runner: drive an open-loop replay and ledger the windows.

:func:`run_serve` reuses the fabric construction path
(:func:`~repro.fabric.runner.build_fabric`), so a given (topology,
target, seed) wires bit-identically in batch and serve mode; what
changes is the drive: a rate-controlled :class:`~repro.serve.replay.
ServeSchedule` instead of back-to-back flows, a
:class:`~repro.serve.windows.RollingWindowMonitor` on the kernel clock,
a host-delivery hook recording end-to-end latency and per-coflow CCT,
and an :class:`~repro.serve.slo.SloPolicy` annotating every window as
it closes.  The result is a ``repro.serve_ledger/1`` document: the full
window series, the SLO compliance summary, run totals, and diffable
sections (a ``serve`` section summarizing each window metric with its
direction, plus the usual per-switch monitor sections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

from ..errors import ConfigError
from ..fabric.app import HostedCoflow
from ..fabric.link import HostEndpoint
from ..fabric.placement import make_placement
from ..fabric.runner import (
    DEFAULT_FLOWLET_GAP_NS,
    DEFAULT_LINK_LATENCY_NS,
    PORT_SPEED_BPS,
    build_fabric,
    inject_arrivals,
)
from ..fabric.topology import Topology, parse_topology
from ..sim.event import CollectorPause, Simulator
from ..telemetry.ledger import SERVE_LEDGER_SCHEMA, git_sha
from ..telemetry.monitor import _percentile
from .replay import MAX_WINDOWS, RateProfile, ServeSchedule, build_schedule
from .slo import SloPolicy
from .windows import RollingWindowMonitor

_NS = 1e-9

DEFAULT_RATE = 0.8
DEFAULT_DURATION_NS = 20_000.0
DEFAULT_WINDOW_NS = 1_000.0

#: Window metrics that are higher-is-better in the serve section's
#: series summaries; everything else keeps the pressure default.
_HIGHER_METRICS = {
    "delivered",
    "offered",
    "throughput_pps",
    "offered_pps",
    "coflows_completed",
    "latency_samples",
}

#: Window metrics excluded from the diffable serve section (identity or
#: bookkeeping, not service quality).
_SKIP_SERIES = {"window", "start_ns", "end_ns"}


@dataclass
class ServeRun:
    """Everything one serve run produced, plus its reporting helpers."""

    topology: Topology
    workload: str
    target: str
    placement: str
    routing: str
    seed: int
    params: dict
    windows: list[dict]
    slo: dict
    schedule: ServeSchedule
    hosts: dict[int, HostEndpoint]
    sections: list = field(default_factory=list)
    duration_s: float = 0.0
    events: int = 0
    events_coalesced: int = 0
    window_ns: float = DEFAULT_WINDOW_NS
    spans: object | None = None  # SpanRecorder when sampling was on
    span_coflows: dict = field(default_factory=dict)

    # --- derived ------------------------------------------------------------------

    @property
    def delivered_to_hosts(self) -> int:
        return sum(len(h.received) for h in self.hosts.values())

    @property
    def dropped(self) -> int:
        return int(sum(w.get("dropped", 0.0) for w in self.windows))

    @property
    def coflows_completed(self) -> int:
        return sum(w["coflows_completed"] for w in self.windows)

    @property
    def exit_code(self) -> int:
        """1 exactly when a declared SLO failed; 0 otherwise."""
        return 1 if self.slo.get("verdict") == "fail" else 0

    def totals(self) -> dict:
        return {
            "injected": self.schedule.injected,
            "delivered_to_hosts": self.delivered_to_hosts,
            "dropped": self.dropped,
            "coflows_scheduled": len(self.schedule.coflows),
            "coflows_completed": self.coflows_completed,
            "rounds": self.schedule.rounds,
            "windows": len(self.windows),
            "duration_s": self.duration_s,
            "events": self.events,
            "events_coalesced": self.events_coalesced,
        }

    # --- reporting ----------------------------------------------------------------

    def _serve_section(self) -> dict:
        """The window series as diffable summaries, direction-tagged."""
        series: dict[str, dict] = {}
        names = sorted(
            {
                name
                for window in self.windows
                for name in window
                if name not in _SKIP_SERIES and name != "slo"
            }
        )
        for name in names:
            values = [
                float(window[name])
                for window in self.windows
                if isinstance(window.get(name), (int, float))
            ]
            if not values:
                continue
            ordered = sorted(values)
            series[name] = {
                "samples": len(values),
                "mean": fsum(values) / len(values),
                "peak": ordered[-1],
                "p99": _percentile(ordered, 99.0),
                "last": values[-1],
                "direction": (
                    "higher" if name in _HIGHER_METRICS else "lower"
                ),
            }
        compliance = float(self.slo.get("compliance", 1.0))
        series["slo.compliance"] = {
            "samples": len(self.windows),
            "mean": compliance,
            "peak": compliance,
            "p99": compliance,
            "last": compliance,
            "direction": "higher",
        }
        return {
            "label": "serve",
            "duration_s": self.duration_s,
            "delivered": self.delivered_to_hosts,
            "consumed": 0,
            "recirculated": 0,
            "samples": len(self.windows),
            "series": series,
            "counters": {},
        }

    def span_records(self) -> list[dict]:
        """Sampled span hops as JSON records (empty without sampling)."""
        if self.spans is None:
            return []
        return [record.to_json() for record in self.spans.records]

    def ledger(self) -> dict:
        """The run as a ``repro.serve_ledger/1`` document (diffable)."""
        sections = [self._serve_section()]
        if self.spans is not None:
            from ..telemetry.spans import span_overview_series

            sections.append(
                {
                    "label": "spans",
                    "series": span_overview_series(self.spans),
                }
            )
        sections.extend(section.to_json() for section in self.sections)
        label = (
            f"serve:{self.workload}@{self.topology.name}:{self.target}"
        )
        return {
            "schema": SERVE_LEDGER_SCHEMA,
            "workload": label,
            "git_sha": git_sha(),
            "window_ns": self.window_ns,
            "config": dict(self.params),
            "windows": self.windows,
            "slo": self.slo,
            "totals": self.totals(),
            "sections": sections,
        }

    def summary(self) -> dict:
        """Flat JSON summary (the CLI's final ``--json`` line)."""
        out = {
            "type": "summary",
            "topology": self.topology.name,
            "workload": self.workload,
            "target": self.target,
            "placement": self.placement,
            "routing": self.routing,
            "seed": self.seed,
            "window_ns": self.window_ns,
            "slo": self.slo,
            **self.totals(),
        }
        if self.spans is not None:
            sampler = self.spans.sampler
            out["spans"] = {
                "sample": sampler.sample,
                "packets_offered": sampler.offered,
                "packets_sampled": sampler.admitted,
                "coverage": sampler.coverage,
                "records": len(self.spans.records),
            }
        return out

    def lines(self) -> list[str]:
        totals = self.totals()
        out = [
            f"serve {self.topology.name} [{self.target}] — "
            f"{self.workload}, rate={self.params['rate']}, "
            f"arrivals={self.params['arrivals']}, seed={self.seed}",
            f"  {totals['windows']} windows x {self.window_ns:g} ns, "
            f"{totals['injected']} packets offered, "
            f"{totals['delivered_to_hosts']} delivered, "
            f"{totals['dropped']} dropped, "
            f"{totals['coflows_completed']}/{totals['coflows_scheduled']} "
            f"coflows completed",
        ]
        if self.slo["objectives"]:
            out.append(
                f"  SLO {self.slo['verdict']}: "
                f"{self.slo['compliant_windows']}/{self.slo['windows']} "
                f"windows compliant "
                f"({', '.join(self.slo['objectives'])})"
            )
        if self.spans is not None:
            sampler = self.spans.sampler
            out.append(
                f"  spans: {sampler.admitted}/{sampler.offered} packets "
                f"sampled (1 in {sampler.sample}), "
                f"{len(self.spans.records)} hop records"
            )
        out.append(
            f"  duration {self.duration_s * 1e9:.1f} ns, "
            f"{self.events} events dispatched"
        )
        return out


def _window_line(record: dict) -> str:
    """One human-readable live line per closed window."""
    p99 = record["p99_latency_ns"]
    p99_text = "-" if p99 is None else f"{p99:.0f}ns"
    verdict = record.get("slo", {})
    status = "ok"
    if verdict.get("violations"):
        status = "VIOLATION " + ",".join(verdict["violations"])
    return (
        f"window {record['window']:>3} "
        f"[{record['start_ns']:.0f}..{record['end_ns']:.0f}ns) "
        f"delivered={record['delivered']} offered={record['offered']} "
        f"p99={p99_text} drop_rate={record['drop_rate']:.3f} "
        f"cct={record['coflows_completed']} {status}"
    )


def run_serve(
    topology: str | Topology,
    workload: str = "fabric-allreduce",
    *,
    target: str = "adcp",
    placement: str = "ingress",
    routing: str = "ecmp",
    seed: int = 0,
    rate: float = DEFAULT_RATE,
    arrivals: str = "poisson",
    duration_ns: float = DEFAULT_DURATION_NS,
    window_ns: float = DEFAULT_WINDOW_NS,
    ramp_ns: float = 0.0,
    bursts: tuple = (),
    coflows: int = 2,
    vector: int = 64,
    slos=(),
    link_latency_ns: float = DEFAULT_LINK_LATENCY_NS,
    flowlet_gap_ns: float = DEFAULT_FLOWLET_GAP_NS,
    interval_ns: float | None = None,
    make_telemetry=None,
    on_window=None,
    sample: int | None = None,
) -> ServeRun:
    """Serve ``workload`` on ``topology`` under open-loop load.

    ``on_window`` (when given) receives each window record as it closes,
    already annotated with its SLO verdict — the CLI streams these as
    JSONL.  ``interval_ns`` sets the per-switch ResourceMonitor grid and
    defaults to the window width, so switch series align with windows.
    ``sample`` head-samples 1-in-``sample`` injected packets for per-hop
    span tracing (:mod:`repro.telemetry.spans`) without leaving the fast
    path; the records land in ``ServeRun.spans``, the JSONL stream, and
    a ``spans`` ledger section.
    """
    if not window_ns > 0:  # also rejects NaN
        raise ConfigError(f"window width must be positive, got {window_ns}")
    if duration_ns < window_ns:
        raise ConfigError(
            f"duration ({duration_ns} ns) must cover at least one "
            f"window ({window_ns} ns)"
        )
    if not duration_ns / window_ns <= MAX_WINDOWS:  # also rejects NaN
        raise ConfigError(
            f"duration ({duration_ns} ns) spans more than {MAX_WINDOWS} "
            f"windows of {window_ns} ns; widen the window or shorten "
            f"the duration"
        )
    policy = slos if isinstance(slos, SloPolicy) else SloPolicy.parse(slos)
    topo = parse_topology(topology) if isinstance(topology, str) else topology
    # RMT's scalar stateful constraint forces one element per packet;
    # ADCP packs up to its array width (same split as run_fabric).
    epp = 1 if target == "rmt" else min(16, vector)
    profile = RateProfile(rate, ramp_ns=ramp_ns, bursts=tuple(bursts))
    # Build, admit and drain inside one collector pause, as run_fabric
    # does (docs/KERNEL.md).
    with CollectorPause():
        schedule = build_schedule(
            workload,
            topo,
            profile=profile,
            arrivals=arrivals,
            duration_ns=duration_ns,
            coflows=coflows,
            vector=vector,
            elements_per_packet=epp,
            link_bps=PORT_SPEED_BPS,
            seed=seed,
        )

        placement_map: dict[int, str] = {}
        hosted_by_switch: dict[str, list[HostedCoflow]] = {}
        if schedule.aggregated:
            chooser = make_placement(placement)
            for spec in schedule.coflows:
                where = chooser.choose(spec.coflow_id, spec.worker_hosts, topo)
                placement_map[spec.coflow_id] = where
                hosted_by_switch.setdefault(where, []).append(
                    HostedCoflow(
                        spec.coflow_id, spec.worker_hosts, spec.vector_elements
                    )
                )

        monitor = RollingWindowMonitor(window_ns)

        # Annotate each window with its SLO verdict before any listener
        # sees it, then forward to the caller's live stream.
        def close_hook(record: dict) -> None:
            violations = policy.evaluate(record)
            record["slo"] = {
                "compliant": not violations,
                "violations": violations,
            }
            if on_window is not None:
                on_window(record)

        monitor.on_window = close_hook

        # Host-delivery hook: per-window delivery/latency accounting plus
        # coflow completion against the schedule's expected counts.
        remaining = dict(schedule.expected)
        open_hosts: dict[int, set[int]] = {}
        for coflow_id, host_id in schedule.expected:
            open_hosts.setdefault(coflow_id, set()).add(host_id)
        first_departure = schedule.first_departure_s
        terminal_opcode = schedule.terminal_opcode

        def host_sink(endpoint: HostEndpoint):
            def deliver(packet, arrival_s: float) -> None:
                origin = packet.meta.origin_time
                monitor.record_delivery(
                    arrival_s,
                    None if origin is None else (arrival_s - origin) / _NS,
                )
                if packet.has_header("coflow"):
                    header = packet.header("coflow")
                    if header["opcode"] == terminal_opcode:
                        key = (header["coflow_id"], endpoint.host_id)
                        left = remaining.get(key, 0)
                        if left > 0:
                            remaining[key] = left - 1
                            if left == 1:
                                coflow_id = key[0]
                                pending = open_hosts[coflow_id]
                                pending.discard(endpoint.host_id)
                                if not pending:
                                    monitor.record_cct(
                                        arrival_s,
                                        (
                                            arrival_s
                                            - first_departure[coflow_id]
                                        )
                                        / _NS,
                                    )
                endpoint.deliver(packet, arrival_s)

            return deliver

        spans = None
        if sample is not None:
            from ..telemetry.sampler import SpanSampler
            from ..telemetry.spans import SpanRecorder

            spans = SpanRecorder(SpanSampler(seed=seed, sample=sample))

        sim = Simulator()
        fabric = build_fabric(
            topo,
            target=target,
            routing=routing,
            placement_map=placement_map,
            hosted_by_switch=hosted_by_switch,
            app_factory=schedule.app_factory,
            elements_per_packet=epp,
            link_latency_ns=link_latency_ns,
            flowlet_gap_ns=flowlet_gap_ns,
            interval_ns=window_ns if interval_ns is None else interval_ns,
            make_telemetry=make_telemetry,
            sim=sim,
            host_sink=host_sink,
            spans=spans,
        )

        # Fabric-wide gauges and counters for the window records, summed
        # over every switch's monitor probes (names as in
        # docs/MONITORING.md).
        occupancy_fns = []
        backlog_fns = []
        recirc_fns = []
        for name in topo.switch_names:
            switch = fabric.switches[name]
            for component in switch.walk():
                contribute = getattr(component, "monitor_probes", None)
                if contribute is None:
                    continue
                for probe_name, fn in contribute().items():
                    if probe_name.endswith(".occupancy"):
                        occupancy_fns.append(fn)
                    elif probe_name.endswith(".recirc_backlog_s"):
                        backlog_fns.append(fn)
                    elif probe_name.endswith(".recirculations"):
                        recirc_fns.append(fn)
        switches = [fabric.switches[name] for name in topo.switch_names]
        monitor.gauge(
            "tm_occupancy",
            lambda now_s: sum(fn(now_s) for fn in occupancy_fns),
        )
        monitor.gauge(
            "recirc_backlog_s",
            lambda now_s: sum(fn(now_s) for fn in backlog_fns),
        )
        monitor.counter(
            "recirculations",
            lambda now_s: sum(fn(now_s) for fn in recirc_fns),
        )
        monitor.set_drop_counter(
            lambda now_s: float(
                sum(len(switch._result.dropped) for switch in switches)
            ),
        )
        monitor.set_offered_schedule(schedule.departure_times_s)
        policy.validate_metrics(monitor.metric_names())
        sim.add_time_probe(monitor)

        span_coflows = inject_arrivals(
            fabric, schedule.arrivals, stamp_origin=True, spans=spans
        )
        sim.run()
    monitor.finish(max(sim.now, schedule.duration_s))
    sections = fabric.finalize_sections()

    params = {
        "topology": topo.name,
        "workload": workload,
        "target": target,
        "placement": placement if schedule.aggregated else "",
        "routing": routing,
        "seed": seed,
        "rate": rate,
        "arrivals": arrivals,
        "duration_ns": duration_ns,
        "window_ns": window_ns,
        "ramp_ns": ramp_ns,
        "bursts": [
            {"factor": b.factor, "start_ns": b.start_ns, "end_ns": b.end_ns}
            for b in profile.bursts
        ],
        "coflows": coflows,
        "vector": vector,
        "link_latency_ns": link_latency_ns,
        "slos": [objective.spec for objective in policy.objectives],
        "sample": sample,
    }
    return ServeRun(
        topology=topo,
        workload=workload,
        target=target,
        placement=placement if schedule.aggregated else "",
        routing=routing,
        seed=seed,
        params=params,
        windows=monitor.records,
        slo=policy.summarize(monitor.records),
        schedule=schedule,
        hosts=fabric.hosts,
        sections=sections,
        duration_s=sim.now,
        events=sim.events_dispatched,
        events_coalesced=sim.events_coalesced,
        window_ns=window_ns,
        spans=spans,
        span_coflows=span_coflows,
    )
