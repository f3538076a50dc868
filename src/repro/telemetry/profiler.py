"""Latency attribution: where every nanosecond of a packet's life went.

The paper's §3 arguments are latency arguments — RMT packets pay a
recirculation and multiplexing tax that the ADCP's central pipelines and
demuxed ports remove.  Telemetry can show *that* a run behaved a certain
way; this module decomposes *where each nanosecond went*.

The profiler folds one switch's span records
(:class:`~repro.telemetry.spans.SpanRecord`), recorded with every packet
sampled (``sample=1``), into an exact tiling of each terminal (delivered
or consumed) packet's lifetime ``[origin, end]``, one record per
**tile**:

==================== ==============================================
bucket               meaning
==================== ==============================================
``ingress_queue``    FIFO wait in front of an ingress-region pipeline
``parse``            parser phase of each pipeline pass
``match_action``     stage-ladder phase of each pipeline pass
``tm_service``       fixed traffic-manager traversal latency
``tm_queue``         wait in a TM buffer until the downstream
                     pipeline starts service
``merge_wait``       buffering in TM1's ordered k-way merge front-end
``recirculation``    a full RMT loopback detour (TM + egress pass +
                     loopback serialization), opaque
``egress_serial``    TX-port queueing plus wire serialization
==================== ==============================================

Hop records carry six of the buckets.  The recorder's per-switch
:class:`~repro.telemetry.spans.SpanMarks` add the other two
(``recirculation`` and ``merge_wait`` tiles), the consumed packets'
ends, and the multicast copies' parents.

**Exactness.**  Every tile boundary is a float the simulator itself
computed and passed downstream, recorded verbatim, so consecutive tiles
share bit-identical boundaries.  The profiler *verifies* the tiling —
any gap or overlap raises — and accounts durations in exact rational
arithmetic (:class:`fractions.Fraction` represents every float exactly),
so per-component attribution sums to the end-to-end latency with
**zero** residual, not residual-up-to-rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import SimulationError
from ..sim.stats import Histogram
from .spans import SpanMarks, SpanRecord, SpanRecorder

#: Attribution buckets, in pipeline order (presentation order for tables).
BUCKETS = (
    "ingress_queue",
    "parse",
    "match_action",
    "tm_service",
    "tm_queue",
    "merge_wait",
    "recirculation",
    "egress_serial",
)

#: Buckets that are pure waiting (the queue-delay share of a run).
QUEUE_BUCKETS = frozenset({"ingress_queue", "tm_queue", "merge_wait"})


@dataclass
class PacketProfile:
    """One packet's fully attributed lifetime.

    ``packet_id`` is run-relative, like the span records'.  ``segments``
    are the tiles in time order (a record's ``hop`` is its bucket).
    ``components`` maps bucket name to attributed seconds; ``instances``
    maps concrete component paths (``"rmt.tm"``, ``"adcp.central2"``) to
    per-bucket seconds.  ``unattributed_s`` is the exact residual between
    the end-to-end latency and the attribution sum — 0.0 whenever the
    tiling verified, by construction.
    """

    packet_id: int
    terminal: str  # "delivered" | "consumed"
    origin_s: float
    end_s: float
    segments: list[SpanRecord]
    components: dict[str, float] = field(default_factory=dict)
    instances: dict[str, dict[str, float]] = field(default_factory=dict)
    recirculations: int = 0
    unattributed_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.end_s - self.origin_s


#: Queue hops open a pipeline pass: queue, parse, match_action.
_PASS_OPENERS = frozenset({"ingress_queue", "tm_queue"})


def _tiles_of(
    records: list[SpanRecord], waits: list[SpanRecord]
) -> list[SpanRecord]:
    """One packet's tiles on one switch, unsorted.

    A recirculation detour is one opaque tile: every hop recorded inside
    it (TM crossing, egress pass, loopback serialization) is dropped.  A
    pipeline pass is tested as a whole, because the re-entry pass's
    zero-length queue hop starts exactly at the re-arrival time and
    belongs after the detour.
    """
    detours = [
        (wait.start_s, wait.end_s)
        for wait in waits
        if wait.hop == "recirculation"
    ]
    tiles = list(waits)
    index = 0
    while index < len(records):
        width = 3 if records[index].hop in _PASS_OPENERS else 1
        start = records[index].start_s
        end = records[index + width - 1].end_s
        if not any(start >= lo and end <= hi for lo, hi in detours):
            tiles.extend(records[index:index + width])
        index += width
    return tiles


def _tile(packet_id: int, tiles: list[SpanRecord]) -> list[SpanRecord]:
    """Sort tiles and verify they tile an interval exactly."""
    ordered = sorted(tiles, key=lambda t: (t.start_s, t.end_s))
    for previous, current in zip(ordered, ordered[1:]):
        if current.start_s != previous.end_s:
            kind = "gap" if current.start_s > previous.end_s else "overlap"
            raise SimulationError(
                f"packet {packet_id}: {kind} between "
                f"{previous.hop}@{previous.component} ending at "
                f"{previous.end_s!r} and {current.hop}@{current.component} "
                f"starting at {current.start_s!r}; attribution would not be "
                f"exact"
            )
    return ordered


#: Replication-lineage depth bound (a copy of a copy of ...).
_MAX_LINEAGE = 32


def _lineage_tiles(
    packet_id: int,
    tiles: dict[int, list[SpanRecord]],
    parents: dict[int, int],
    depth: int = 0,
) -> list[SpanRecord]:
    """Tiles for a packet, prepending its replication ancestry.

    A multicast copy's records start at its TM admission, but the
    packet's journey started when its replication parent entered the
    switch; the parent's own tiling ends exactly at the replication
    instant, so prepending it extends the copy's lifetime seamlessly.
    """
    if depth > _MAX_LINEAGE:
        raise SimulationError(
            f"packet {packet_id}: replication lineage deeper than "
            f"{_MAX_LINEAGE}; the parent marks likely form a cycle"
        )
    # A parent with no records of its own was replicated the instant it
    # was born: the lineage starts here.
    own = tiles.get(packet_id, [])
    parent = parents.get(packet_id)
    if parent is not None:
        return _lineage_tiles(parent, tiles, parents, depth + 1) + own
    return own


def _profile_packet(
    packet_id: int, tiles: dict[int, list[SpanRecord]], marks: SpanMarks
) -> PacketProfile | None:
    """Build one packet's profile, or None for non-terminal packets.

    A delivered packet ends at its egress serialization (one outside any
    detour); a consumed one at its mark.
    """
    serial = [t for t in tiles[packet_id] if t.hop == "egress_serial"]
    if serial:
        terminal = "delivered"
        end_s = serial[-1].end_s
    elif packet_id in marks.consumed:
        terminal = "consumed"
        end_s = marks.consumed[packet_id]
    else:
        return None

    ordered = _tile(
        packet_id, _lineage_tiles(packet_id, tiles, marks.parents)
    )
    origin_s = ordered[0].start_s
    if ordered[-1].end_s != end_s:
        raise SimulationError(
            f"packet {packet_id}: last tile ends at "
            f"{ordered[-1].end_s!r} but the packet reached its terminal "
            f"state at {end_s!r}"
        )

    exact: dict[str, Fraction] = {}
    instances: dict[str, dict[str, Fraction]] = {}
    for tile in ordered:
        duration = Fraction(tile.end_s) - Fraction(tile.start_s)
        exact[tile.hop] = exact.get(tile.hop, Fraction(0)) + duration
        per = instances.setdefault(tile.component, {})
        per[tile.hop] = per.get(tile.hop, Fraction(0)) + duration

    residual = Fraction(end_s) - Fraction(origin_s) - sum(exact.values())
    return PacketProfile(
        packet_id=packet_id,
        terminal=terminal,
        origin_s=origin_s,
        end_s=end_s,
        segments=ordered,
        components={bucket: float(value) for bucket, value in exact.items()},
        instances={
            path: {bucket: float(v) for bucket, v in per.items()}
            for path, per in instances.items()
        },
        recirculations=sum(1 for t in ordered if t.hop == "recirculation"),
        unattributed_s=float(residual),
    )


def _add_residencies(
    records: list[SpanRecord], residencies: dict[str, list[float]]
) -> None:
    """One packet's TM residencies: each ``tm_service`` start to the end
    of its next ``match_action``, the downstream pass where the switch
    releases the packet from that TM."""
    admitted = None
    for record in records:
        if record.hop == "tm_service":
            admitted = record
        elif record.hop == "match_action" and admitted is not None:
            residencies.setdefault(admitted.component, []).append(
                record.end_s - admitted.start_s
            )
            admitted = None


class RunProfile:
    """Aggregated latency attribution for one traced run.

    Attributes:
        label: Human name of the run (``"rmt"``, ``"adcp-mergejoin"``).
        packets: Per-packet profiles keyed by packet id.
        histograms: Per-bucket :class:`Histogram` of per-packet attributed
            seconds (a packet contributes to a bucket's histogram only
            when it spent time there).
        latency: Histogram of end-to-end latency across all profiled
            packets; its count equals delivered + consumed.
        residencies: Per-TM residencies (admission to release) of every
            packet with records, terminal or not: Little's law's W.
    """

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.packets: dict[int, PacketProfile] = {}
        self.residencies: dict[str, list[float]] = {}
        self.histograms: dict[str, Histogram] = {
            bucket: Histogram(f"{label}.attribution.{bucket}")
            for bucket in BUCKETS
        }
        self.latency = Histogram(f"{label}.latency_e2e")

    # --- construction -------------------------------------------------------------

    def add(self, profile: PacketProfile) -> None:
        self.packets[profile.packet_id] = profile
        self.latency.observe(profile.latency_s)
        for bucket, seconds in profile.components.items():
            self.histograms[bucket].observe(seconds)

    # --- inspection ---------------------------------------------------------------

    @property
    def profiled(self) -> int:
        return len(self.packets)

    def count(self, terminal: str) -> int:
        return sum(1 for p in self.packets.values() if p.terminal == terminal)

    def bucket_total_s(self, bucket: str) -> float:
        return self.histograms[bucket].total

    @property
    def total_latency_s(self) -> float:
        return self.latency.total

    @property
    def mean_latency_s(self) -> float:
        return self.latency.mean

    def bucket_mean_s(self, bucket: str) -> float:
        """Mean attributed seconds per *profiled packet* (zeros included),
        so bucket means sum to the mean end-to-end latency."""
        if not self.packets:
            raise SimulationError(f"profile {self.label!r} has no packets")
        return self.bucket_total_s(bucket) / self.profiled

    def instance_totals_s(self) -> dict[str, float]:
        """Attributed seconds per concrete component, across all buckets."""
        totals: dict[str, float] = {}
        for profile in self.packets.values():
            for path, per in profile.instances.items():
                totals[path] = totals.get(path, 0.0) + math.fsum(per.values())
        return totals

    def instance_bucket_totals_s(self) -> dict[str, dict[str, float]]:
        """Attributed seconds per (component, bucket)."""
        totals: dict[str, dict[str, float]] = {}
        for profile in self.packets.values():
            for path, per in profile.instances.items():
                slot = totals.setdefault(path, {})
                for bucket, seconds in per.items():
                    slot[bucket] = slot.get(bucket, 0.0) + seconds
        return totals

    def to_json(self) -> dict:
        """Machine-readable digest (no per-packet detail)."""
        total = self.total_latency_s
        return {
            "label": self.label,
            "profiled_packets": self.profiled,
            "delivered": self.count("delivered"),
            "consumed": self.count("consumed"),
            "mean_latency_ns": self.mean_latency_s * 1e9 if self.packets else 0.0,
            "p99_latency_ns": (
                self.latency.percentile(99) * 1e9 if self.packets else 0.0
            ),
            "buckets": {
                bucket: {
                    "packets": self.histograms[bucket].count,
                    "total_ns": self.bucket_total_s(bucket) * 1e9,
                    "share": (
                        self.bucket_total_s(bucket) / total if total else 0.0
                    ),
                }
                for bucket in BUCKETS
            },
        }


def profile_run(
    recorder: SpanRecorder, switch: str, label: str | None = None
) -> RunProfile:
    """Attribute every terminal packet's latency on ``switch``.

    Folds the records and marks ``recorder`` holds for that switch name.
    Recorded with every packet sampled (``sample=1``, as ``repro
    profile`` and ``repro monitor`` do), the profile covers every packet
    the switch saw; at 1-in-N it covers the sampled ones.  Packets fold
    in ascending run-relative id, the order of their absolute ids.
    """
    run = RunProfile(switch if label is None else label)
    marks = recorder.marks.get(switch) or SpanMarks()
    hops: dict[int, list[SpanRecord]] = {}
    for record in recorder.records:
        if record.switch == switch:
            hops.setdefault(record.packet, []).append(record)
    tiles = {
        packet: _tiles_of(records, marks.waits.get(packet, []))
        for packet, records in hops.items()
    }
    for packet in sorted(hops):
        _add_residencies(hops[packet], run.residencies)
        profile = _profile_packet(packet, tiles, marks)
        if profile is not None:
            run.add(profile)
    return run


def profile_chrome_events(run: RunProfile, pid: str | None = None) -> list[dict]:
    """Attribution tiles as Chrome trace-event ``X`` slices.

    One lane per bucket (``tid``), so the Perfetto timeline shows where
    simultaneous packets sat.  Combine with the monitor's counter tracks
    (:meth:`~repro.telemetry.monitor.ResourceMonitor.chrome_counter_events`).
    """
    out: list[dict] = []
    process = pid or f"{run.label}-attribution"
    for profile in run.packets.values():
        for tile in profile.segments:
            out.append(
                {
                    "name": tile.hop,
                    "cat": "attribution",
                    "ph": "X",
                    "pid": process,
                    "tid": tile.hop,
                    "ts": tile.start_s * 1e6,
                    "dur": tile.duration_s * 1e6,
                    "args": {
                        "packet_id": tile.packet,
                        "component": tile.component,
                    },
                }
            )
    return out
