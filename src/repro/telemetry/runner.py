"""Reference workloads for ``python -m repro trace|profile|monitor``.

Each workload builds one or two instrumented switches and runs a small
self-checking experiment.  ``trace`` records every event and
cross-checks the stream against the run's terminal counters (delivered
and recirculated packets must match event-for-event), then exports a
Chrome trace-event timeline plus a plain-text report.  ``profile`` and
``monitor`` record no trace event: every hub carries a resource monitor,
one span recorder samples every packet, and latency attribution is a
fold over each switch's span records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError, SimulationError
from ..units import GBPS
from .events import Category
from .exporters import chrome_trace_events, text_report, write_chrome_trace
from .ledger import SwitchSection
from .monitor import DEFAULT_INTERVAL_NS, ResourceMonitor
from .session import Telemetry

#: Ring depth for ``trace``: large enough that the reference workloads
#: never wrap, so the consistency checks can be exact.
_CLI_CAPACITY = 1 << 20


@dataclass
class TraceRun:
    """Everything one ``trace`` invocation produced."""

    workload: str
    path: Path
    sections: list[SwitchSection]
    lines: list[str] = field(default_factory=list)
    spans: object | None = None  # SpanRecorder when --sample was given

    def summary(self) -> dict:
        """JSON-friendly digest for ``--json`` output."""
        out = {
            "workload": self.workload,
            "trace_file": str(self.path),
            "sections": [
                {
                    "label": s.label,
                    "events_emitted": s.telemetry.trace.emitted,
                    "events_retained": len(s.telemetry.trace),
                    "events_by_name": s.telemetry.trace.counts_by_name(),
                    "snapshots": len(s.telemetry.monitor),
                    "delivered": len(s.result.delivered),
                    "recirculated": s.result.recirculated_packets,
                    "duration_s": s.result.duration_s,
                }
                for s in self.sections
            ],
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


def _make_telemetry() -> Telemetry:
    return Telemetry(
        capacity=_CLI_CAPACITY, monitor=ResourceMonitor(DEFAULT_INTERVAL_NS)
    )


# --- workloads ---------------------------------------------------------------------
#
# Each workload factory accepts an optional ``make_telemetry`` so callers
# can swap the hub configuration (``profile`` and ``monitor`` pass one
# with a monitor and no trace ring) without the factories knowing what
# changed, plus an explicit ``seed``: all randomness flows through
# ``sim/rng`` from that one number (workloads with no stochastic
# generator accept it for interface uniformity — campaign sweeps pass
# seeds unconditionally).
# The optional ``spans`` is a shared SpanRecorder: every switch (and, on
# fabric workloads, every link) of the run points at it, so sampled
# packets leave per-hop spans without touching the trace path.  A
# switch's spans are filed under its own name, except on fabric
# workloads, where they are filed under the section label.


def _trace_paramserver(vector: int):
    """Factory-of-factories for parameter aggregation on both targets.

    ``quickstart`` (examples/quickstart.py) aggregates 256 elements;
    ``mltrain`` is Table 1's ML-training row, the exact 128-element pair
    of ``benchmarks/test_table1_applications.py``.  The ADCP aggregates
    16-element packets in its central bank while RMT is forced to scalar
    packets plus egress-pinned state, which is where its CCT gap comes
    from — run ``mltrain`` under ``profile`` to see the gap decomposed
    into recirculation and TM queue-wait.
    """

    def factory(make_telemetry=None, seed=None, spans=None) -> list[SwitchSection]:
        from ..adcp.config import ADCPConfig
        from ..adcp.switch import ADCPSwitch
        from ..apps import ParameterServerApp
        from ..rmt.config import RMTConfig
        from ..rmt.switch import RMTSwitch

        workers = [0, 1, 4, 5]
        sections = []
        mk = make_telemetry or _make_telemetry

        adcp_tel = mk()
        adcp_config = ADCPConfig(
            num_ports=8, port_speed_bps=100 * GBPS, demux_factor=2,
            central_pipelines=4,
        )
        adcp_app = ParameterServerApp(workers, vector, elements_per_packet=16)
        adcp = ADCPSwitch(adcp_config, adcp_app, telemetry=adcp_tel)
        if spans is not None:
            adcp.spans = spans
        adcp_result = adcp.run(adcp_app.workload(adcp_config.port_speed_bps))
        sections.append(SwitchSection("adcp", adcp_tel, adcp_result))

        rmt_tel = mk()
        rmt_config = RMTConfig(
            num_ports=8, pipelines=2, port_speed_bps=100 * GBPS,
            min_wire_packet_bytes=84.0, frequency_hz=1.25e9,
        )
        rmt_app = ParameterServerApp(workers, vector, elements_per_packet=1)
        rmt = RMTSwitch(rmt_config, rmt_app, telemetry=rmt_tel)
        if spans is not None:
            rmt.spans = spans
        rmt_result = rmt.run(rmt_app.workload(rmt_config.port_speed_bps))
        sections.append(SwitchSection("rmt", rmt_tel, rmt_result))
        return sections

    return factory


def _trace_recirculate(make_telemetry=None, seed=None, spans=None) -> list[SwitchSection]:
    """RMT hosting state by recirculation: every foreign-pipeline packet
    pays a loopback pass (the §2 bandwidth tax, on the timeline)."""
    from ..apps import ParameterServerApp
    from ..rmt.config import RMTConfig, StateMode
    from ..rmt.switch import RMTSwitch

    telemetry = (make_telemetry or _make_telemetry)()
    config = RMTConfig(
        num_ports=8, pipelines=2, port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0, frequency_hz=1.25e9,
        state_mode=StateMode.RECIRCULATE,
    )
    app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=1)
    switch = RMTSwitch(config, app, telemetry=telemetry)
    if spans is not None:
        switch.spans = spans
    result = switch.run(app.workload(config.port_speed_bps))
    return [SwitchSection("rmt-recirculate", telemetry, result)]


#: Pinned relation seed for the mergejoin reference workload; an
#: explicit ``seed`` overrides it (the default keeps committed baselines
#: byte-stable).
_MERGEJOIN_SEED = 7


def _trace_mergejoin(make_telemetry=None, seed=None, spans=None) -> list[SwitchSection]:
    """TM1's order-preserving merge joining two sorted relations."""
    from ..adcp.config import ADCPConfig
    from ..adcp.switch import ADCPSwitch
    from ..apps import SortMergeJoinApp
    from ..sim.rng import make_rng

    rng = make_rng(_MERGEJOIN_SEED if seed is None else seed)

    def relation(rows: int, key_space: int) -> list[tuple[int, int]]:
        keys = rng.integers(0, key_space, size=rows)
        values = rng.integers(0, 1000, size=rows)
        return sorted((int(k), int(v)) for k, v in zip(keys, values))

    telemetry = (make_telemetry or _make_telemetry)()
    app = SortMergeJoinApp(left_port=0, right_port=1, output_port=7)
    config = ADCPConfig(
        num_ports=8, port_speed_bps=100 * GBPS, demux_factor=2,
        central_pipelines=4,
    )
    switch = ADCPSwitch(
        config, app, ordered_flows=app.ordered_flows(), telemetry=telemetry
    )
    if spans is not None:
        switch.spans = spans
    result = switch.run(
        app.workload(config.port_speed_bps, relation(80, 40), relation(80, 40))
    )
    return [SwitchSection("adcp-mergejoin", telemetry, result)]


def _trace_fabric(workload_name: str):
    """Factory-of-factories for the fabric workloads: one leaf-spine
    fabric run per target, with every switch as its own section (each
    switch owns its telemetry hub, so the per-section consistency and
    attribution checks hold switch-by-switch)."""

    def factory(make_telemetry=None, seed=None, spans=None) -> list[SwitchSection]:
        from ..fabric import run_fabric

        sections: list[SwitchSection] = []
        for target in ("adcp", "rmt"):
            first_record = len(spans.records) if spans is not None else 0
            run = run_fabric(
                "leaf-spine-2x2",
                workload_name,
                target=target,
                seed=0 if seed is None else seed,
                make_telemetry=make_telemetry or _make_telemetry,
                spans=spans,
            )
            if spans is not None:
                # Both targets share switch names (leaf0, spine0, ...):
                # file this run's spans under the section labels below.
                spans.prefix_switches(f"{target}-", first_record)
            sections.extend(
                SwitchSection(
                    f"{target}-{section.label}",
                    section.telemetry,
                    section.result,
                )
                for section in run.sections
            )
        return sections

    return factory


def _trace_stateful(workload: str):
    """Factory-of-factories for the stateful workloads: both targets'
    single-switch runs (see :mod:`repro.stateful.runner`), one section
    per target."""

    def factory(make_telemetry=None, seed=None, spans=None) -> list[SwitchSection]:
        from ..stateful.runner import single_trace_sections

        return single_trace_sections(
            workload,
            make_telemetry=make_telemetry or _make_telemetry,
            seed=0 if seed is None else seed,
            spans=spans,
        )

    return factory


TRACEABLE = {
    "quickstart": _trace_paramserver(256),
    "recirculate": _trace_recirculate,
    "mergejoin": _trace_mergejoin,
    "mltrain": _trace_paramserver(128),
    "fabric-allreduce": _trace_fabric("fabric-allreduce"),
    "fabric-shuffle": _trace_fabric("fabric-shuffle"),
    "stateful-tokenbucket": _trace_stateful("tokenbucket"),
    "stateful-synflood": _trace_stateful("synflood"),
    "stateful-heavyhitter": _trace_stateful("heavyhitter"),
    "stateful-keycache": _trace_stateful("keycache"),
}


def _traceable(workload: str, command: str):
    """The factory of a ``trace``/``profile``/``monitor`` workload."""
    if workload not in TRACEABLE:
        raise ConfigError(
            f"unknown {command} workload {workload!r}; choose from "
            f"{', '.join(sorted(TRACEABLE))}"
        )
    return TRACEABLE[workload]


def _profiled_sections(
    workload: str, command: str, seed: int | None, interval_ns: float
) -> list[tuple[SwitchSection, object]]:
    """Run ``workload`` for ``profile``/``monitor`` and attribute it.

    Every hub carries a monitor on the ``interval_ns`` grid and no trace
    ring; one span recorder samples every packet.  Returns each section
    with its :class:`~repro.telemetry.profiler.RunProfile`, after
    checking that every profiled packet's attribution sums exactly
    (bit-exact, not within-epsilon) to its end-to-end latency.
    """
    from .profiler import profile_run
    from .sampler import SpanSampler
    from .spans import SpanRecorder

    factory = _traceable(workload, command)
    spans = SpanRecorder(
        SpanSampler(seed=0 if seed is None else seed, sample=1)
    )
    sections = factory(
        make_telemetry=lambda: Telemetry.at_level(
            "counters", interval_ns=interval_ns
        ),
        seed=seed,
        spans=spans,
    )
    recorded = {record.switch for record in spans.records}
    out = []
    for section in sections:
        # Fabric factories file spans under the section label; the
        # single-switch ones under the switch's own name.
        switch = (
            section.label
            if section.label in recorded
            else section.telemetry.switch.name
        )
        profile = profile_run(spans, switch, label=section.label)
        leaky = [
            p for p in profile.packets.values() if p.unattributed_s != 0.0
        ]
        if leaky:
            worst = max(leaky, key=lambda p: abs(p.unattributed_s))
            raise SimulationError(
                f"{section.label}: {len(leaky)} packets with "
                f"unattributed time (worst: packet {worst.packet_id}, "
                f"{worst.unattributed_s * 1e9:.3f} ns); the attribution "
                f"model no longer tiles this workload"
            )
        out.append((section, profile))
    return out


@dataclass
class ProfileSection:
    """One profiled switch run: monitor, attribution, bottleneck report."""

    label: str
    telemetry: Telemetry
    result: object  # SwitchRunResult
    profile: object  # repro.telemetry.RunProfile
    report: object  # repro.telemetry.BottleneckReport


@dataclass
class ProfileRun:
    """Everything one ``profile`` invocation produced."""

    workload: str
    sections: list[ProfileSection]
    gap: dict[str, float] | None = None
    gap_labels: tuple[str, str] | None = None  # (slow, fast)
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """JSON-friendly digest for ``--json`` output."""
        out: dict = {
            "workload": self.workload,
            "sections": [
                {
                    "label": s.label,
                    "attribution": s.profile.to_json(),
                    "bottlenecks": s.report.to_json(),
                    "delivered": len(s.result.delivered),
                    "recirculated": s.result.recirculated_packets,
                    "duration_s": s.result.duration_s,
                }
                for s in self.sections
            ],
        }
        if self.gap is not None:
            slow, fast = self.gap_labels
            out["gap"] = {
                "slow": slow,
                "fast": fast,
                "shares": self.gap,
            }
        return out

    def chrome_events(self) -> list[dict]:
        """Monitor counter tracks plus attribution lanes, one process
        per section."""
        from .profiler import profile_chrome_events

        events: list[dict] = []
        for section in self.sections:
            events.extend(
                section.telemetry.monitor.chrome_counter_events(
                    pid=section.label
                )
            )
            events.extend(profile_chrome_events(section.profile))
        return events


def run_profile(
    workload: str,
    chrome_out: str | Path | None = None,
    seed: int | None = None,
) -> ProfileRun:
    """Run ``workload`` and attribute every packet's latency.

    Profiles the same registry of workloads as :func:`run_trace` but
    records no trace event: the attribution folds span records sampled
    1-in-1 (:func:`_profiled_sections`), and any residual raises.  When
    the workload runs both architectures, the mean-latency gap is
    decomposed into per-bucket shares.  ``chrome_out`` additionally
    writes a Chrome trace with per-bucket attribution lanes and the
    monitor's counter tracks.
    """
    from .attribution import AttributionTable, analyze_bottlenecks, attribution_gap

    sections = [
        ProfileSection(
            section.label,
            section.telemetry,
            section.result,
            profile,
            analyze_bottlenecks(
                profile,
                section.telemetry.monitor,
                duration_s=section.result.duration_s,
            ),
        )
        for section, profile in _profiled_sections(
            workload, "profile", seed, DEFAULT_INTERVAL_NS
        )
    ]

    run = ProfileRun(workload, sections)
    run.lines.append(f"profile workload {workload!r}")
    for section in sections:
        run.lines.append("")
        run.lines.extend(
            AttributionTable(section.profile).lines(title=section.label)
        )
        run.lines.extend(section.report.lines())

    if len(sections) == 2 and all(s.profile.packets for s in sections):
        slow, fast = sorted(
            sections, key=lambda s: s.profile.mean_latency_s, reverse=True
        )
        if slow.profile.mean_latency_s > fast.profile.mean_latency_s:
            run.gap = attribution_gap(slow.profile, fast.profile)
            run.gap_labels = (slow.label, fast.label)
            delta = (
                slow.profile.mean_latency_s - fast.profile.mean_latency_s
            )
            run.lines.append("")
            run.lines.append(
                f"mean-latency gap: {slow.label} is {delta * 1e9:.1f} ns "
                f"slower than {fast.label}; per-bucket shares:"
            )
            for bucket, share in run.gap.items():
                if share:
                    run.lines.append(f"  {bucket:<16} {share:>7.1%}")

    if chrome_out is not None:
        path = write_chrome_trace(chrome_out, run.chrome_events())
        run.lines.append("")
        run.lines.append(f"chrome trace with attribution lanes -> {path}")
    return run


def _consistency_errors(section: SwitchSection) -> list[str]:
    """Cross-check a traced section's event stream against its terminal
    counters."""
    trace = section.telemetry.trace
    if trace.overwritten:
        return [
            f"{section.label}: ring overwrote {trace.overwritten} events; "
            f"counts are not exact"
        ]
    errors: list[str] = []
    delivered_events = trace.count(name="packet.delivered")
    if delivered_events != len(section.result.delivered):
        errors.append(
            f"{section.label}: {delivered_events} packet.delivered events "
            f"vs {len(section.result.delivered)} delivered packets"
        )
    recirc_events = trace.count(category=Category.RECIRC)
    if recirc_events != section.result.recirculated_packets:
        errors.append(
            f"{section.label}: {recirc_events} recirculation events vs "
            f"{section.result.recirculated_packets} recirculated packets"
        )
    return errors


def run_trace(
    workload: str,
    out: str | Path | None = None,
    seed: int | None = None,
    sample: int | None = None,
) -> TraceRun:
    """Run ``workload`` with telemetry on and export its timeline.

    Writes a Chrome trace-event JSON (default ``trace_<workload>.json`` in
    the working directory) and returns the :class:`TraceRun` with the
    text report in ``.lines``.  Raises :class:`SimulationError` if the
    event stream disagrees with the run's terminal counters.

    ``sample`` additionally samples 1-in-``sample`` packets head-based
    (:mod:`repro.telemetry.sampler`) and merges their per-hop span slices
    into the exported timeline — here the spans ride *alongside* the full
    trace; under ``sampled`` telemetry they are what remains of it.
    """
    factory = _traceable(workload, "trace")
    spans = None
    if sample is not None:
        from .sampler import SpanSampler
        from .spans import SpanRecorder

        spans = SpanRecorder(
            SpanSampler(seed=0 if seed is None else seed, sample=sample)
        )
    sections = factory(seed=seed, spans=spans)

    errors: list[str] = []
    for section in sections:
        errors.extend(_consistency_errors(section))
    if errors:
        raise SimulationError(
            "trace/counter mismatch: " + "; ".join(errors)
        )

    events: list[dict] = []
    for section in sections:
        telemetry = section.telemetry
        events.extend(chrome_trace_events(telemetry.trace, pid=section.label))
        events.extend(
            telemetry.monitor.chrome_counter_events(pid=section.label)
        )
    if spans is not None:
        from .spans import span_chrome_events

        events.extend(span_chrome_events(spans.records))
    path = write_chrome_trace(out or f"trace_{workload}.json", events)

    run = TraceRun(workload, path, sections, spans=spans)
    run.lines.append(f"trace workload {workload!r} -> {path}")
    run.lines.append(f"  chrome trace events: {len(events)}")
    if spans is not None:
        sampler = spans.sampler
        run.lines.append(
            f"  spans: {sampler.admitted}/{sampler.offered} packets "
            f"sampled (1 in {sampler.sample}), "
            f"{len(spans.records)} hop records"
        )
    for section in sections:
        run.lines.extend(
            text_report(
                section.telemetry.trace,
                section.telemetry.monitor,
                title=section.label,
                counters=section.result.counters,
            )
        )
        run.lines.append(
            f"  counters: delivered={len(section.result.delivered)} "
            f"recirculated={section.result.recirculated_packets} "
            f"consumed={section.result.consumed} "
            f"(consistent with trace)"
        )
    return run


# --- resource monitoring -----------------------------------------------------------


@dataclass
class MonitorSection:
    """One monitored switch run: series, attribution, cross-checks."""

    label: str
    telemetry: Telemetry
    result: object  # SwitchRunResult
    monitor: object  # repro.telemetry.monitor.ResourceMonitor
    attribution: dict
    littles: list = field(default_factory=list)


@dataclass
class MonitorRun:
    """Everything one ``monitor`` invocation produced."""

    workload: str
    interval_ns: float
    sections: list[MonitorSection]
    ledger: dict
    ledger_path: Path
    csv_paths: list[Path] = field(default_factory=list)
    chrome_path: Path | None = None
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """JSON-friendly digest for ``--json`` output: the ledger plus
        the artifact paths this invocation wrote."""
        return {
            "ledger_file": str(self.ledger_path),
            "csv_files": [str(p) for p in self.csv_paths],
            "chrome_file": (
                str(self.chrome_path) if self.chrome_path else None
            ),
            "ledger": self.ledger,
        }


def _sectioned_path(base: Path, label: str, count: int) -> Path:
    """Per-section artifact path: suffix the label when a workload has
    several sections so they never overwrite each other."""
    if count == 1:
        return base
    return base.with_name(f"{base.stem}_{label}{base.suffix}")


def run_monitor(
    workload: str,
    interval_ns: float | None = None,
    ledger_out: str | Path | None = None,
    csv_out: str | Path | None = None,
    chrome_out: str | Path | None = None,
    seed: int | None = None,
) -> MonitorRun:
    """Run ``workload`` with a resource monitor sampling every
    ``interval_ns`` simulated nanoseconds, and write the run ledger.

    The ledger (default ``ledger_<workload>.json``) embeds per-section
    series summaries, the latency-attribution table, and the Little's-law
    cross-check of each TM's sampled occupancy against λW from the span
    records (informational, same posture as the bottleneck report: the
    two sides read different clocks, so heavy TM queueing flags a
    mismatch; see :class:`~repro.telemetry.attribution.LittlesLawCheck`).
    Like ``profile``, the run records no trace event
    (:func:`_profiled_sections`).  ``csv_out`` additionally dumps the
    full columnar time-series; ``chrome_out`` writes the monitor's
    counter tracks.
    """
    from .attribution import AttributionTable, monitor_littles_checks
    from .ledger import build_ledger, write_ledger

    if interval_ns is None:
        interval_ns = DEFAULT_INTERVAL_NS

    sections: list[MonitorSection] = []
    for section, profile in _profiled_sections(
        workload, "monitor", seed, interval_ns
    ):
        monitor = section.telemetry.monitor
        sections.append(
            MonitorSection(
                section.label,
                section.telemetry,
                section.result,
                monitor,
                AttributionTable(profile).to_json(),
                monitor_littles_checks(
                    profile, monitor, section.result.duration_s
                ),
            )
        )

    ledger = build_ledger(
        workload=workload,
        interval_ns=interval_ns,
        sections=[
            {
                "label": s.label,
                "duration_s": s.result.duration_s,
                "delivered": len(s.result.delivered),
                "consumed": s.result.consumed,
                "recirculated": s.result.recirculated_packets,
                "samples": len(s.monitor),
                "series": {
                    name: summary.to_json()
                    for name, summary in s.monitor.summaries().items()
                },
                "attribution": s.attribution,
                "littles_law": [
                    {
                        "component": c.component,
                        "predicted_occupancy": c.predicted_occupancy,
                        "observed_occupancy": c.observed_occupancy,
                        "consistent": c.consistent,
                    }
                    for c in s.littles
                ],
                "counters": s.result.counters,
            }
            for s in sections
        ],
    )
    ledger_path = write_ledger(
        ledger_out or f"ledger_{workload}.json", ledger
    )

    run = MonitorRun(workload, interval_ns, sections, ledger, ledger_path)
    run.lines.append(
        f"monitor workload {workload!r} "
        f"(interval {interval_ns:g} ns) -> {ledger_path}"
    )
    for section in sections:
        summaries = section.monitor.summaries()
        run.lines.append(
            f"  {section.label}: {len(section.monitor)} samples x "
            f"{len(summaries)} series, "
            f"duration {section.result.duration_s * 1e9:.0f} ns"
        )
        busiest = sorted(
            summaries.values(), key=lambda s: s.peak, reverse=True
        )[:5]
        for summary in busiest:
            run.lines.append(
                f"    {summary.name:<44} peak {summary.peak:>10.4g} "
                f"mean {summary.mean:>10.4g} p99 {summary.p99:>10.4g}"
            )
        for check in section.littles:
            flag = "ok" if check.consistent else "MISMATCH"
            run.lines.append(
                f"    little's law {check.component}: "
                f"predicted {check.predicted_occupancy:.2f} vs "
                f"sampled {check.observed_occupancy:.2f} ({flag})"
            )

    if csv_out is not None:
        base = Path(csv_out)
        for section in sections:
            path = section.monitor.write_csv(
                _sectioned_path(base, section.label, len(sections))
            )
            run.csv_paths.append(path)
            run.lines.append(f"  time-series csv ({section.label}) -> {path}")

    if chrome_out is not None:
        events: list[dict] = []
        for section in sections:
            events.extend(
                section.monitor.chrome_counter_events(pid=section.label)
            )
        run.chrome_path = write_chrome_trace(chrome_out, events)
        run.lines.append(
            f"  chrome trace with monitor counters -> {run.chrome_path}"
        )
    return run


# --- sampled fabric spans ----------------------------------------------------------


@dataclass
class SpansSection:
    """One target's sampled fabric run."""

    target: str
    recorder: object  # repro.telemetry.spans.SpanRecorder
    run: object  # repro.fabric.runner.FabricRun
    critical_paths: list  # list[CoflowCriticalPath]


@dataclass
class SpansRun:
    """Everything one ``spans`` invocation produced."""

    topology: str
    workload: str
    sample: int
    seed: int
    sections: list[SpansSection]
    ledger: dict
    ledger_path: Path | None = None
    chrome_path: Path | None = None
    lines: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """JSON-friendly digest for ``--json`` output."""
        return {
            "topology": self.topology,
            "workload": self.workload,
            "sample": self.sample,
            "seed": self.seed,
            "ledger_file": (
                str(self.ledger_path) if self.ledger_path else None
            ),
            "chrome_file": (
                str(self.chrome_path) if self.chrome_path else None
            ),
            "sections": [
                {
                    "target": s.target,
                    "packets_offered": s.recorder.sampler.offered,
                    "packets_sampled": s.recorder.sampler.admitted,
                    "coverage": s.recorder.sampler.coverage,
                    "records": len(s.recorder.records),
                    "spans": len({r.span for r in s.recorder.records}),
                    "critical_paths": [
                        p.to_json() for p in s.critical_paths
                    ],
                }
                for s in self.sections
            ],
        }


#: Default head-sampling rate for ``spans`` CLI runs: 1 in 16 keeps the
#: fast path representative while still covering every coflow.
DEFAULT_SAMPLE = 16


def run_spans(
    topology: str,
    workload: str,
    target: str = "both",
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
    ledger_out: str | Path | None = None,
    chrome_out: str | Path | None = None,
) -> SpansRun:
    """Run a fabric workload with 1-in-``sample`` span tracing.

    Runs ``workload`` on ``topology`` per target (default both) with a
    head-based :class:`~repro.telemetry.sampler.SpanSampler` — the fast
    path stays live, only the sampled subset leaves per-hop records —
    then attributes each coflow's sampled completion time to its
    dominant hop.  ``ledger_out`` writes one combined
    ``repro.span_ledger/1`` (per-switch hop digests, coverage, critical
    paths; byte-identical per seed modulo ``git_sha``, diffable with
    ``repro diff``); ``chrome_out`` writes the fabric-wide timeline with
    one track per switch and link.
    """
    from ..fabric import run_fabric
    from .ledger import SPAN_LEDGER_SCHEMA, git_sha
    from .sampler import SpanSampler
    from .spans import (
        SpanRecorder,
        build_span_ledger,
        coflow_critical_paths,
        span_chrome_events,
        write_span_ledger,
    )

    if target == "both":
        targets: tuple[str, ...] = ("adcp", "rmt")
    elif target in ("adcp", "rmt"):
        targets = (target,)
    else:
        raise ConfigError(
            f"unknown spans target {target!r} (choices: adcp, rmt, both)"
        )

    sections: list[SpansSection] = []
    merged_sections: list[dict] = []
    critical: dict[str, list] = {}
    for name in targets:
        recorder = SpanRecorder(SpanSampler(seed=seed, sample=sample))
        fabric_run = run_fabric(
            topology, workload, target=name, seed=seed, spans=recorder
        )
        paths = coflow_critical_paths(
            recorder.records, fabric_run.span_coflows
        )
        sections.append(SpansSection(name, recorder, fabric_run, paths))
        doc = build_span_ledger(
            workload,
            recorder,
            seed=seed,
            span_coflows=fabric_run.span_coflows,
            config={"topology": topology, "target": name},
        )
        merged_sections.extend(
            {"label": f"{name}-{sec['label']}", "series": sec["series"]}
            for sec in doc["sections"]
        )
        critical[name] = doc["critical_paths"]

    # One combined document for the whole invocation.  The raw per-hop
    # records live in the Chrome export; the ledger keeps the diffable
    # digests so committed baselines stay small.
    ledger = {
        "schema": SPAN_LEDGER_SCHEMA,
        "workload": workload,
        "topology": topology,
        "targets": list(targets),
        "seed": seed,
        "sample": sample,
        "git_sha": git_sha(),
        "sections": merged_sections,
        "critical_paths": critical,
    }

    run = SpansRun(topology, workload, sample, seed, sections, ledger)
    run.lines.append(
        f"spans {workload!r} on {topology} "
        f"(1 in {sample} head-sampled, seed {seed})"
    )
    for section in sections:
        sampler = section.recorder.sampler
        tracks = len({r.switch for r in section.recorder.records})
        run.lines.append(
            f"  {section.target}: {sampler.admitted}/{sampler.offered} "
            f"packets sampled, {len(section.recorder.records)} hop "
            f"records across {tracks} tracks"
        )
        for path in section.critical_paths:
            run.lines.append(
                f"    coflow {path.coflow}: sampled cct "
                f"{path.cct_s * 1e9:.1f} ns, dominant hop "
                f"{path.dominant} over {path.spans} spans"
            )

    if ledger_out is not None:
        run.ledger_path = write_span_ledger(ledger_out, ledger)
        run.lines.append(f"  span ledger -> {run.ledger_path}")
    if chrome_out is not None:
        events: list[dict] = []
        for section in sections:
            prefix = f"{section.target}-" if len(sections) > 1 else ""
            events.extend(
                span_chrome_events(section.recorder.records, prefix)
            )
        run.chrome_path = write_chrome_trace(chrome_out, events)
        run.lines.append(f"  chrome span timeline -> {run.chrome_path}")
    return run
