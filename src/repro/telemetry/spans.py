"""Per-hop spans for sampled packets, and what to do with them.

A *span* is the causal trace of one sampled packet: every hop it (and
every ``OP_RESULT`` emission it triggers) takes through the fabric —
ingress queueing, parse, match/action, traffic-manager service and
queueing, egress serialization, link flight — each recorded as one
:class:`SpanRecord` with exact simulated-time boundaries and the
component it was spent at.  Sampling is decided once at injection
(:class:`~repro.telemetry.sampler.SpanSampler`); the span id rides in
``PacketMetadata.span``, survives
:func:`~repro.fabric.link.switch_handoff`'s per-hop meta resets, and is
inherited by emissions, so one id stitches the whole cross-switch story
together.

Switch hops are named after the latency-attribution buckets
(:data:`repro.telemetry.profiler.BUCKETS`): recorded 1-in-1, one
switch's records fold into its exact attribution
(:func:`~repro.telemetry.profiler.profile_run`).  What a hop record
cannot say — a consumed packet's end, a multicast copy's parent, a
recirculation detour, a merge wait — the recorder keeps beside the
records as per-switch :class:`SpanMarks`.  ``link`` is span-only: the
profiler sees one switch at a time, spans see the fabric.

The recorder costs nothing on unsampled packets beyond the ``is None``
test each hook already performs.  Like every telemetry level, spans
only record: they never change the path a packet takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .sampler import SpanSampler

#: Span hop names, in pipeline order: the attribution buckets a switch
#: hop lands in, plus ``link``, which has no single-switch counterpart.
SPAN_HOPS = (
    "ingress_queue",
    "parse",
    "match_action",
    "tm_service",
    "tm_queue",
    "egress_serial",
    "link",
)

#: The hops span ledgers and critical paths report: both TM hops roll
#: up into one ``tm``.
LEDGER_HOPS = (
    "ingress_queue",
    "parse",
    "match_action",
    "tm",
    "egress_serial",
    "link",
)


def _ledger_hop(hop: str) -> str:
    return "tm" if hop in ("tm_service", "tm_queue") else hop


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One hop of one sampled packet's life, in simulated seconds."""

    span: int  # run-relative id of the sampled root packet
    packet: int  # run-relative id of the packet this hop belongs to
    switch: str  # switch name, or link name for ``link`` hops
    hop: str  # one of SPAN_HOPS, or an attribution bucket for a mark
    start_s: float
    end_s: float
    component: str = ""  # where the time went: pipeline, TM, port, link

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_json(self) -> dict:
        return {
            "span": self.span,
            "packet": self.packet,
            "switch": self.switch,
            "hop": self.hop,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "component": self.component,
        }


class SpanMarks:
    """What one switch's hop records leave out about its sampled packets.

    Keys are run-relative packet ids.  ``consumed`` holds the time a hook
    consumed the packet; ``parents`` the packet a multicast copy was
    replicated from; ``waits`` the packet's recirculation detours and
    merge waits, as records that never join
    :attr:`SpanRecorder.records` (span ledgers digest those hop by hop);
    ``offered`` a merge offer's time until its release.
    """

    __slots__ = ("consumed", "parents", "waits", "offered")

    def __init__(self) -> None:
        self.consumed: dict[int, float] = {}
        self.parents: dict[int, int] = {}
        self.waits: dict[int, list[SpanRecord]] = {}
        self.offered: dict[int, float] = {}


class SpanRecorder:
    """Collects :class:`SpanRecord`\\ s for the sampled packet subset.

    One recorder serves a whole run — every switch and link of a fabric
    points at the same instance (``switch.spans`` / ``link.spans``), so
    records arrive in global dispatch order and the record list is as
    deterministic as the event kernel itself.  ``marks`` maps a switch
    name to its :class:`SpanMarks`.
    """

    __slots__ = ("sampler", "records", "marks")

    def __init__(self, sampler: SpanSampler) -> None:
        self.sampler = sampler
        self.records: list[SpanRecord] = []
        self.marks: dict[str, SpanMarks] = {}

    def admit(self, packet) -> bool:
        """Sampling decision at injection; tags ``meta.span`` when sampled."""
        if self.sampler.admits(packet.packet_id):
            packet.meta.span = self.sampler.span_id(packet.packet_id)
            return True
        return False

    def relative(self, packet_id: int) -> int:
        """Run-relative id for ledger/trace output (process-independent)."""
        return self.sampler.span_id(packet_id)

    def record(
        self,
        span: int,
        packet_id: int,
        switch: str,
        hop: str,
        start_s: float,
        end_s: float,
        component: str,
    ) -> None:
        self.records.append(
            SpanRecord(
                span, self.relative(packet_id), switch, hop,
                start_s, end_s, component,
            )
        )

    def service(
        self,
        span: int,
        packet_id: int,
        switch: str,
        ready_s: float,
        start_s: float,
        parse_s: float,
        exit_s: float,
        component: str,
        tm: str | None = None,
    ) -> None:
        """Record the three hops of one pipeline service at ``component``.

        Boundaries come verbatim from the pipeline's
        :class:`~repro.rmt.pipeline.ServiceRecord` (the floats a traced
        ``pipeline.service`` event carries), so the hops tile the service
        window exactly.  The pre-service wait is ``ingress_queue`` at the
        pipeline for an ingress pass; after a traffic-manager crossing it
        is ``tm_queue``, booked to ``tm``, the TM whose buffer holds the
        packet until this pass starts.
        """
        packet = self.relative(packet_id)
        append = self.records.append
        queue, waited_at = (
            ("ingress_queue", component) if tm is None else ("tm_queue", tm)
        )
        append(
            SpanRecord(span, packet, switch, queue, ready_s, start_s, waited_at)
        )
        parse_end = start_s + parse_s
        append(
            SpanRecord(
                span, packet, switch, "parse", start_s, parse_end, component
            )
        )
        append(
            SpanRecord(
                span, packet, switch, "match_action",
                parse_end, exit_s, component,
            )
        )

    # --- marks: facts that are no hop, kept beside the records -------------------

    def _marks(self, switch: str) -> SpanMarks:
        marks = self.marks.get(switch)
        if marks is None:
            marks = self.marks[switch] = SpanMarks()
        return marks

    def mark_consumed(self, switch: str, packet_id: int, time_s: float) -> None:
        """A hook on ``switch`` consumed the packet at ``time_s``."""
        self._marks(switch).consumed[self.relative(packet_id)] = time_s

    def mark_parent(self, switch: str, packet_id: int, parent_id: int) -> None:
        """``switch``'s TM replicated multicast copy ``packet_id`` from
        ``parent_id``."""
        self._marks(switch).parents[self.relative(packet_id)] = (
            self.relative(parent_id)
        )

    def mark_wait(
        self,
        span: int,
        packet_id: int,
        switch: str,
        hop: str,
        start_s: float,
        end_s: float,
        component: str,
    ) -> None:
        """A span of the packet's life that is no single hop: a
        ``recirculation`` detour (whose inner hops stay records) or a
        ``merge_wait``."""
        packet = self.relative(packet_id)
        self._marks(switch).waits.setdefault(packet, []).append(
            SpanRecord(span, packet, switch, hop, start_s, end_s, component)
        )

    def mark_offer(self, switch: str, packet_id: int, time_s: float) -> None:
        """The packet entered ``switch``'s ordered merge at ``time_s``."""
        self._marks(switch).offered[self.relative(packet_id)] = time_s

    def mark_release(
        self, span: int, switch: str, packet_id: int, time_s: float
    ) -> None:
        """The merge released the packet: its offer -> release wait."""
        offered = self._marks(switch).offered.pop(self.relative(packet_id))
        self.mark_wait(
            span, packet_id, switch, "merge_wait", offered, time_s, "merge"
        )

    def prefix_switches(self, prefix: str, first: int) -> None:
        """Prefix the switch of every record from index ``first`` on, and
        those switches' marks, so two runs that reuse switch names stay
        apart in one recorder."""
        records = self.records
        names = set()
        for index in range(first, len(records)):
            record = records[index]
            names.add(record.switch)
            records[index] = replace(record, switch=prefix + record.switch)
        for name in names.intersection(self.marks):
            marks = self.marks.pop(name)
            for waits in marks.waits.values():
                waits[:] = [
                    replace(wait, switch=prefix + name) for wait in waits
                ]
            self.marks[prefix + name] = marks

    def __len__(self) -> int:
        return len(self.records)


# --- analysis --------------------------------------------------------------------


@dataclass(frozen=True)
class CoflowCriticalPath:
    """Where one coflow's (sampled) completion time went.

    ``cct_s`` spans the coflow's earliest sampled hop start to its latest
    sampled hop end; ``hop_totals`` sums the *critical span* — the span
    chain finishing last, i.e. the one that gated completion — per hop,
    with the untraced remainder (inter-hop waits, aggregation barriers)
    reported as ``other_s``.  ``dominant`` names the largest contributor.
    """

    coflow: str
    spans: int
    cct_s: float
    critical_span: int
    hop_totals: dict[str, float]
    other_s: float
    dominant: str

    def to_json(self) -> dict:
        return {
            "coflow": self.coflow,
            "spans": self.spans,
            "cct_s": self.cct_s,
            "critical_span": self.critical_span,
            "hop_totals": dict(self.hop_totals),
            "other_s": self.other_s,
            "dominant": self.dominant,
        }


def coflow_critical_paths(
    records: list[SpanRecord],
    span_coflows: dict[int, str],
) -> list[CoflowCriticalPath]:
    """Attribute each coflow's sampled CCT to its dominant hop.

    ``span_coflows`` maps span ids to coflow labels (the injector knows
    which coflow each sampled root packet belongs to); spans without a
    mapping (e.g. background traffic) are ignored.
    """
    by_span: dict[int, list[SpanRecord]] = {}
    for record in records:
        by_span.setdefault(record.span, []).append(record)
    by_coflow: dict[str, list[int]] = {}
    for span, coflow in span_coflows.items():
        if span in by_span:
            by_coflow.setdefault(coflow, []).append(span)
    out: list[CoflowCriticalPath] = []
    for coflow in sorted(by_coflow):
        spans = by_coflow[coflow]
        start = min(r.start_s for s in spans for r in by_span[s])
        end = max(r.end_s for s in spans for r in by_span[s])
        critical = max(
            spans, key=lambda s: (max(r.end_s for r in by_span[s]), s)
        )
        chain = by_span[critical]
        hop_totals = {hop: 0.0 for hop in LEDGER_HOPS}
        for record in chain:
            hop_totals[_ledger_hop(record.hop)] += record.duration_s
        chain_window = max(r.end_s for r in chain) - min(
            r.start_s for r in chain
        )
        other = max(0.0, chain_window - sum(hop_totals.values()))
        contributions = dict(hop_totals)
        contributions["other"] = other
        dominant = max(
            contributions, key=lambda hop: (contributions[hop], hop)
        )
        out.append(
            CoflowCriticalPath(
                coflow=coflow,
                spans=len(spans),
                cct_s=end - start,
                critical_span=critical,
                hop_totals=hop_totals,
                other_s=other,
                dominant=dominant,
            )
        )
    return out


# --- export ----------------------------------------------------------------------


def span_chrome_events(
    records: list[SpanRecord], pid_prefix: str = ""
) -> list[dict]:
    """Chrome ``traceEvents`` with one track (pid) per switch/link.

    Complete events (ph ``X``), microsecond timestamps, one tid per span
    so a sampled packet's hops line up on one row inside its switch's
    track — load the file in ``chrome://tracing`` / Perfetto.
    ``pid_prefix`` disambiguates tracks when several runs share switch
    names (e.g. both fabric targets in one file).
    """
    events = []
    for record in records:
        events.append(
            {
                "name": record.hop,
                "cat": "span",
                "ph": "X",
                "ts": record.start_s * 1e6,
                "dur": record.duration_s * 1e6,
                "pid": pid_prefix + record.switch,
                "tid": f"span {record.span}",
                "args": {"span": record.span, "packet": record.packet},
            }
        )
    return events


def _summary(durations: list[float]) -> dict:
    """A ``SeriesSummary``-shaped digest of one hop's durations."""
    count = len(durations)
    if not count:
        return {
            "samples": 0, "mean": 0.0, "peak": 0.0,
            "p99": 0.0, "last": 0.0, "total": 0.0,
        }
    ordered = sorted(durations)
    total = sum(ordered)
    return {
        "samples": count,
        "mean": total / count,
        "peak": ordered[-1],
        "p99": ordered[min(count - 1, (99 * count) // 100)],
        "last": durations[-1],
        "total": total,
    }


def _scalar(value: float) -> dict:
    return {"samples": 1, "mean": value, "peak": value, "p99": value,
            "last": value, "total": value}


def span_overview_series(recorder: SpanRecorder) -> dict:
    """The ``spans`` overview section's series: sampling coverage and
    record counts.  Shared by span ledgers and the serve ledger."""
    sampler = recorder.sampler
    span_ids = {record.span for record in recorder.records}
    return {
        "span.coverage": _scalar(sampler.coverage),
        "span.packets_offered": _scalar(float(sampler.offered)),
        "span.packets_sampled": _scalar(float(sampler.admitted)),
        "span.count": _scalar(float(len(span_ids))),
        "span.records": _scalar(float(len(recorder.records))),
    }


def span_sections(
    recorder: SpanRecorder, span_coflows: dict[int, str]
) -> tuple[list[dict], list[CoflowCriticalPath]]:
    """A recorder's ledger sections and its coflows' critical paths.

    Sections: one per switch/link (series ``span.<hop>_s``, duration
    digests), a ``spans`` overview (coverage and counts), and — when
    ``span_coflows`` maps any span — a ``critical_path`` section with
    each coflow's sampled CCT and dominant-hop attribution.
    """
    sections: list[dict] = []
    durations: dict[str, dict[str, list[float]]] = {}
    for record in recorder.records:
        durations.setdefault(record.switch, {}).setdefault(
            _ledger_hop(record.hop), []
        ).append(record.duration_s)
    for switch in sorted(durations):
        series = {
            f"span.{hop}_s": _summary(values)
            for hop, values in sorted(durations[switch].items())
        }
        sections.append({"label": switch, "series": series})

    sections.append({"label": "spans", "series": span_overview_series(recorder)})

    paths = coflow_critical_paths(recorder.records, span_coflows)
    if span_coflows:
        series = {}
        for path in paths:
            series[f"{path.coflow}.cct_s"] = _scalar(path.cct_s)
            dominant_total = (
                path.other_s
                if path.dominant == "other"
                else path.hop_totals[path.dominant]
            )
            series[f"{path.coflow}.dominant.{path.dominant}_s"] = _scalar(
                dominant_total
            )
        sections.append({"label": "critical_path", "series": series})
    return sections, paths
