"""Per-hop spans for sampled packets, and what to do with them.

A *span* is the causal trace of one sampled packet: every hop it (and
every ``OP_RESULT`` emission it triggers) takes through the fabric —
ingress queueing, parse, match/action, traffic-manager residency, egress
serialization, link flight — each recorded as one :class:`SpanRecord`
with exact simulated-time boundaries.  Sampling is decided once at
injection (:class:`~repro.telemetry.sampler.SpanSampler`); the span id
rides in ``PacketMetadata.span``, survives
:func:`~repro.fabric.link.switch_handoff`'s per-hop meta resets, and is
inherited by emissions, so one id stitches the whole cross-switch story
together.

Hop names deliberately reuse PR 3's attribution vocabulary
(``ingress_queue``/``parse``/``match_action``/``egress_serial``; ``tm``
lumps ``tm_service``+``tm_queue``) so sampled span totals can be
reconciled against the bit-exact profiler on small runs — that
cross-check lives in ``tests/telemetry/test_spans.py``.  ``link`` is
span-only: the profiler sees one switch at a time, spans see the fabric.

The recorder costs nothing on unsampled packets beyond the ``is None``
test each hook already performs.  Like every telemetry level, spans
only record: they never change the path a packet takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .ledger import SPAN_LEDGER_SCHEMA, git_sha, write_ledger
from .sampler import SpanSampler

#: Span hop names, in pipeline order.  The first four map 1:1 onto PR 3
#: attribution buckets; ``tm`` covers ``tm_service`` + ``tm_queue``;
#: ``link`` has no single-switch counterpart.
SPAN_HOPS = (
    "ingress_queue",
    "parse",
    "match_action",
    "tm",
    "egress_serial",
    "link",
)


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One hop of one sampled packet's life, in simulated seconds."""

    span: int  # run-relative id of the sampled root packet
    packet: int  # run-relative id of the packet this hop belongs to
    switch: str  # switch name, or link name for ``link`` hops
    hop: str  # one of SPAN_HOPS
    start_s: float
    end_s: float

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
        }


class SpanRecorder:
    """Collects :class:`SpanRecord`\\ s for the sampled packet subset.

    One recorder serves a whole run — every switch and link of a fabric
    points at the same instance (``switch.spans`` / ``link.spans``), so
    records arrive in global dispatch order and the record list is as
    deterministic as the event kernel itself.
    """

    __slots__ = ("sampler", "records")

    def __init__(self, sampler: SpanSampler) -> None:
        self.sampler = sampler
        self.records: list[SpanRecord] = []

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
    ) -> None:
        self.records.append(
            SpanRecord(
                span, self.relative(packet_id), switch, hop, start_s, end_s
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
        queue_hop: str = "ingress_queue",
    ) -> None:
        """Record the three hops of one pipeline service.

        Boundaries come verbatim from the pipeline's
        :class:`~repro.rmt.pipeline.ServiceRecord` (the floats a traced
        ``pipeline.service`` event carries), so span totals tile the service
        window exactly the way the PR 3 profiler does.  ``queue_hop``
        labels the pre-service wait: ``ingress_queue`` for ingress-region
        passes, ``tm`` for egress-region passes (the wait for an egress
        pipeline *is* TM residency — the profiler's ``tm_queue``).
        """
        packet = self.relative(packet_id)
        append = self.records.append
        append(SpanRecord(span, packet, switch, queue_hop, ready_s, start_s))
        parse_end = start_s + parse_s
        append(SpanRecord(span, packet, switch, "parse", start_s, parse_end))
        append(
            SpanRecord(span, packet, switch, "match_action", parse_end, exit_s)
        )

    def __len__(self) -> int:
        return len(self.records)


# --- analysis --------------------------------------------------------------------


def span_hop_totals(
    records: list[SpanRecord],
) -> dict[str, dict[str, float]]:
    """``{switch: {hop: summed duration_s}}`` over all records."""
    totals: dict[str, dict[str, float]] = {}
    for record in records:
        per_switch = totals.setdefault(record.switch, {})
        per_switch[record.hop] = (
            per_switch.get(record.hop, 0.0) + record.duration_s
        )
    return totals


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
        hop_totals = {hop: 0.0 for hop in SPAN_HOPS}
        for record in chain:
            hop_totals[record.hop] += record.duration_s
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


def _summary(durations: list[float], direction: str | None = None) -> dict:
    """A ``SeriesSummary``-shaped digest of one hop's durations."""
    count = len(durations)
    if count:
        ordered = sorted(durations)
        total = sum(ordered)
        summary = {
            "samples": count,
            "mean": total / count,
            "peak": ordered[-1],
            "p99": ordered[min(count - 1, (99 * count) // 100)],
            "last": durations[-1],
            "total": total,
        }
    else:
        summary = {
            "samples": 0, "mean": 0.0, "peak": 0.0,
            "p99": 0.0, "last": 0.0, "total": 0.0,
        }
    if direction is not None:
        summary["direction"] = direction
    return summary


def _scalar(value: float, direction: str | None = None) -> dict:
    summary = {"samples": 1, "mean": value, "peak": value, "p99": value,
               "last": value, "total": value}
    if direction is not None:
        summary["direction"] = direction
    return summary


def span_overview_series(recorder: SpanRecorder) -> dict:
    """The ``spans`` overview section's series: sampling coverage and
    record counts, direction-tagged so ``repro diff`` knows more
    coverage is better.  Shared by span ledgers and the serve ledger."""
    sampler = recorder.sampler
    span_ids = {record.span for record in recorder.records}
    return {
        "span.coverage": _scalar(sampler.coverage, "higher"),
        "span.packets_offered": _scalar(float(sampler.offered)),
        "span.packets_sampled": _scalar(float(sampler.admitted), "higher"),
        "span.count": _scalar(float(len(span_ids)), "higher"),
        "span.records": _scalar(float(len(recorder.records)), "higher"),
    }


def build_span_ledger(
    workload: str,
    recorder: SpanRecorder,
    *,
    seed: int,
    span_coflows: dict[int, str] | None = None,
    config: dict | None = None,
) -> dict:
    """Assemble a ``repro.span_ledger/1`` document.

    Sections: one per switch/link (series ``span.<hop>_s``, duration
    digests), a ``spans`` overview (coverage and counts; coverage is
    direction-tagged higher-is-better), and — when ``span_coflows`` is
    given — a ``critical_path`` section with each coflow's sampled CCT
    and dominant-hop attribution.  Byte-identical per seed modulo
    ``git_sha``; diffable with ``repro diff``.
    """
    sampler = recorder.sampler
    sections: list[dict] = []
    durations: dict[str, dict[str, list[float]]] = {}
    for record in recorder.records:
        durations.setdefault(record.switch, {}).setdefault(
            record.hop, []
        ).append(record.duration_s)
    for switch in sorted(durations):
        series = {
            f"span.{hop}_s": _summary(values)
            for hop, values in sorted(durations[switch].items())
        }
        sections.append({"label": switch, "series": series})

    sections.append({"label": "spans", "series": span_overview_series(recorder)})

    critical: list[dict] = []
    if span_coflows:
        paths = coflow_critical_paths(recorder.records, span_coflows)
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
        critical = [path.to_json() for path in paths]

    return {
        "schema": SPAN_LEDGER_SCHEMA,
        "workload": workload,
        "seed": seed,
        "sample": sampler.sample,
        "git_sha": git_sha(),
        "config": config or {},
        "sections": sections,
        "critical_paths": critical,
        "spans": [record.to_json() for record in recorder.records],
    }


def write_span_ledger(path: str | Path, ledger: dict) -> Path:
    """Deterministic, atomic span-ledger write (same format as ledgers)."""
    return write_ledger(path, ledger)
