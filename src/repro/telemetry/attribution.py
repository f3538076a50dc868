"""Bottleneck analysis over latency attributions.

:mod:`~repro.telemetry.profiler` answers "where did this packet's
nanoseconds go"; this module answers the run-level questions on top:

- **attribution table** — per-bucket totals, shares, and percentile
  spreads, mergeable across runs/switches via :meth:`Histogram.merge`;
- **bottleneck report** — per-component utilization and queue-delay
  share, a Little's-law cross-check of TM residency against the
  resource monitor's sampled occupancy, and a top-k "critical
  component" ranking;
- **gap attribution** — which buckets explain the mean-latency gap
  between two runs (the Table 1 RMT-vs-ADCP question).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..sim.stats import Histogram
from .profiler import BUCKETS, QUEUE_BUCKETS, RunProfile
from .recorder import TraceRecorder


@dataclass(frozen=True)
class AttributionRow:
    """One bucket's aggregate across a set of profiled packets."""

    bucket: str
    packets: int
    total_s: float
    share: float
    mean_s: float
    p50_s: float
    p99_s: float
    max_s: float


class AttributionTable:
    """Per-bucket attribution aggregated over one or more runs.

    Merging uses :meth:`~repro.sim.stats.Histogram.merge`, so a table
    over several runs (e.g. the RMT and ADCP sections of one workload)
    reports the same percentiles as one run over the union of packets.
    """

    def __init__(self, *profiles: RunProfile) -> None:
        if not profiles:
            raise SimulationError("attribution table needs at least one run")
        self.profiles = profiles
        self.histograms: dict[str, Histogram] = {
            bucket: Histogram.merged(
                f"attribution.{bucket}",
                (p.histograms[bucket] for p in profiles),
            )
            for bucket in BUCKETS
        }
        self.latency = Histogram.merged(
            "latency_e2e", (p.latency for p in profiles)
        )

    def rows(self) -> list[AttributionRow]:
        total = self.latency.total
        rows = []
        for bucket in BUCKETS:
            histogram = self.histograms[bucket]
            if histogram.count:
                rows.append(
                    AttributionRow(
                        bucket=bucket,
                        packets=histogram.count,
                        total_s=histogram.total,
                        share=histogram.total / total if total else 0.0,
                        mean_s=histogram.mean,
                        p50_s=histogram.percentile(50),
                        p99_s=histogram.percentile(99),
                        max_s=histogram.maximum,
                    )
                )
            else:
                rows.append(
                    AttributionRow(bucket, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                )
        return rows

    def lines(self, title: str = "attribution") -> list[str]:
        if not self.latency.count:
            return [f"latency attribution — {title} (no profiled packets)"]
        out = [
            f"latency attribution — {title} "
            f"({self.latency.count} packets, "
            f"mean {self.latency.mean * 1e9:.1f} ns, "
            f"p99 {self.latency.percentile(99) * 1e9:.1f} ns)"
        ]
        out.append(
            f"  {'bucket':<16} {'pkts':>6} {'total ns':>10} {'share':>7} "
            f"{'mean ns':>9} {'p99 ns':>9}"
        )
        for row in self.rows():
            out.append(
                f"  {row.bucket:<16} {row.packets:>6} "
                f"{row.total_s * 1e9:>10.1f} {row.share:>6.1%} "
                f"{row.mean_s * 1e9:>9.2f} {row.p99_s * 1e9:>9.2f}"
            )
        return out

    def to_json(self) -> dict:
        return {
            "packets": self.latency.count,
            "mean_latency_ns": self.latency.mean * 1e9 if self.latency.count else 0.0,
            "rows": [
                {
                    "bucket": row.bucket,
                    "packets": row.packets,
                    "total_ns": row.total_s * 1e9,
                    "share": row.share,
                    "mean_ns": row.mean_s * 1e9,
                    "p50_ns": row.p50_s * 1e9,
                    "p99_ns": row.p99_s * 1e9,
                    "max_ns": row.max_s * 1e9,
                }
                for row in self.rows()
            ],
        }


@dataclass(frozen=True)
class LittlesLawCheck:
    """L = λW cross-check for one traffic manager.

    ``predicted_occupancy`` is λW from the trace: admission rate times
    mean admit→release residency, on trace timestamps, which are model
    times (admission at the upstream pipeline's exit, release at the
    downstream pipeline's exit).  ``observed_occupancy`` is the time
    average of the TM's sampled ``<tm>.occupancy`` series, a counter
    that moves when the switch dispatches those admit and release calls
    on the simulation clock.  Under heavy TM queueing the two clocks
    part and the check reads inconsistent although both sides are right
    (docs/MONITORING.md, "Cross-validation").
    """

    component: str
    arrival_rate_pps: float
    mean_residency_s: float
    predicted_occupancy: float
    observed_occupancy: float
    tolerance: float

    @property
    def ratio(self) -> float:
        if self.predicted_occupancy == 0.0:
            return 1.0 if self.observed_occupancy == 0.0 else math.inf
        return self.observed_occupancy / self.predicted_occupancy

    @property
    def consistent(self) -> bool:
        return 1.0 / self.tolerance <= self.ratio <= self.tolerance


@dataclass(frozen=True)
class CriticalComponent:
    """One entry of the top-k bottleneck ranking."""

    component: str
    attributed_s: float
    share: float
    queue_share: float
    utilization: float | None


@dataclass
class BottleneckReport:
    """Run-level bottleneck analysis for one profiled run."""

    label: str
    duration_s: float
    critical: list[CriticalComponent] = field(default_factory=list)
    littles: list[LittlesLawCheck] = field(default_factory=list)
    queue_delay_share: float = 0.0

    def lines(self) -> list[str]:
        out = [f"bottleneck report — {self.label}"]
        out.append(
            f"  queue-delay share of total latency: "
            f"{self.queue_delay_share:.1%}"
        )
        out.append(f"  critical components (by attributed time):")
        for entry in self.critical:
            util = (
                f" util {entry.utilization:.1%}"
                if entry.utilization is not None
                else ""
            )
            out.append(
                f"    {entry.component:<24} {entry.attributed_s * 1e9:>10.1f} ns "
                f"({entry.share:>5.1%}, queueing {entry.queue_share:.1%})"
                f"{util}"
            )
        for check in self.littles:
            flag = "ok" if check.consistent else "MISMATCH"
            out.append(
                f"  little's law {check.component}: "
                f"λ={check.arrival_rate_pps / 1e6:.1f} Mpps "
                f"W={check.mean_residency_s * 1e9:.1f} ns -> "
                f"L={check.predicted_occupancy:.2f} "
                f"vs observed {check.observed_occupancy:.2f} "
                f"({flag})"
            )
        return out

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "queue_delay_share": self.queue_delay_share,
            "critical": [
                {
                    "component": e.component,
                    "attributed_ns": e.attributed_s * 1e9,
                    "share": e.share,
                    "queue_share": e.queue_share,
                    "utilization": e.utilization,
                }
                for e in self.critical
            ],
            "littles_law": [
                {
                    "component": c.component,
                    "arrival_rate_pps": c.arrival_rate_pps,
                    "mean_residency_ns": c.mean_residency_s * 1e9,
                    "predicted_occupancy": c.predicted_occupancy,
                    "observed_occupancy": c.observed_occupancy,
                    "ratio": c.ratio,
                    "consistent": c.consistent,
                }
                for c in self.littles
            ],
        }


def _tm_residencies(recorder: TraceRecorder) -> dict[str, list[float]]:
    """Per-TM admit→release residencies, paired chronologically per packet.

    A packet cannot occupy one TM's buffer twice at the same instant, so
    sorting each packet's admits and releases and zipping them pairs the
    crossings correctly even for recirculating packets.
    """
    admits: dict[tuple[str, int], list[float]] = {}
    releases: dict[tuple[str, int], list[float]] = {}
    for event in recorder:
        if event.name == "tm.admit" and event.packet_id is not None:
            admits.setdefault((event.component, event.packet_id), []).append(
                event.time_s
            )
        elif event.name == "tm.release" and event.packet_id is not None:
            releases.setdefault((event.component, event.packet_id), []).append(
                event.time_s
            )
    residencies: dict[str, list[float]] = {}
    for (component, packet_id), times in admits.items():
        out_times = releases.get((component, packet_id), [])
        for admitted, released in zip(sorted(times), sorted(out_times)):
            residencies.setdefault(component, []).append(released - admitted)
    return residencies


def analyze_bottlenecks(
    profile: RunProfile,
    recorder: TraceRecorder,
    monitor=None,
    duration_s: float | None = None,
    top_k: int = 5,
    littles_tolerance: float = 2.0,
) -> BottleneckReport:
    """Build the bottleneck report for one profiled run.

    ``monitor`` is the run's
    :class:`~repro.telemetry.monitor.ResourceMonitor`: a critical
    component's utilization is the last sample of its
    ``<component>.utilization`` series, and the Little's-law rows are
    :func:`monitor_littles_checks` with ``littles_tolerance``.  Without
    a monitor the report has neither.
    """
    if duration_s is None:
        duration_s = max(
            (p.end_s for p in profile.packets.values()), default=0.0
        )
    total = profile.total_latency_s
    sampled = monitor is not None and len(monitor) > 0
    monitored = set(monitor.names) if sampled else set()

    # Per-component attributed time and queueing time.
    instance_buckets = profile.instance_bucket_totals_s()
    queue_total = math.fsum(
        profile.bucket_total_s(bucket) for bucket in QUEUE_BUCKETS
    )
    critical = []
    for component, buckets in instance_buckets.items():
        attributed = math.fsum(buckets.values())
        queueing = math.fsum(
            seconds
            for bucket, seconds in buckets.items()
            if bucket in QUEUE_BUCKETS
        )
        series = f"{component}.utilization"
        utilization = None
        # A recirculation tile spans a whole loop pass (TM crossing,
        # egress pass, loopback wire), so the same-named loopback port's
        # utilization would misdescribe it.
        if series in monitored and "recirculation" not in buckets:
            utilization = monitor.column(series)[-1]
        critical.append(
            CriticalComponent(
                component=component,
                attributed_s=attributed,
                share=attributed / total if total else 0.0,
                queue_share=queueing / queue_total if queue_total else 0.0,
                utilization=utilization,
            )
        )
    critical.sort(key=lambda e: e.attributed_s, reverse=True)

    littles = []
    if monitor is not None:
        littles = monitor_littles_checks(
            recorder, monitor, duration_s, tolerance=littles_tolerance
        )

    return BottleneckReport(
        label=profile.label,
        duration_s=duration_s,
        critical=critical[:top_k],
        littles=littles,
        queue_delay_share=queue_total / total if total else 0.0,
    )


def monitor_littles_checks(
    recorder: TraceRecorder,
    monitor,
    duration_s: float,
    tolerance: float = 2.0,
) -> list[LittlesLawCheck]:
    """Little's-law checks of the resource monitor's TM series.

    One :class:`LittlesLawCheck` per TM that both admitted packets in
    the trace and has a ``<tm>.occupancy`` series in the
    :class:`~repro.telemetry.monitor.ResourceMonitor`; a monitor that
    has not sampled yet reads zero occupancy.  The bottleneck report
    reuses these rows.  The predicted side reads trace (model)
    times and the observed side the dispatch clock, so the checks flag
    heavy TM queueing as well as a mis-wired probe.
    """
    checks: list[LittlesLawCheck] = []
    if duration_s <= 0:
        return checks
    names = set(monitor.names)
    for component, residencies in sorted(_tm_residencies(recorder).items()):
        series = f"{component}.occupancy"
        if not residencies or series not in names:
            continue
        column = monitor.column(series) if len(monitor) else []
        observed = math.fsum(column) / len(column) if column else 0.0
        rate = len(residencies) / duration_s
        mean_residency = math.fsum(residencies) / len(residencies)
        checks.append(
            LittlesLawCheck(
                component=component,
                arrival_rate_pps=rate,
                mean_residency_s=mean_residency,
                predicted_occupancy=rate * mean_residency,
                observed_occupancy=observed,
                tolerance=tolerance,
            )
        )
    return checks


def attribution_gap(
    slow: RunProfile, fast: RunProfile
) -> dict[str, float]:
    """Which buckets explain ``slow``'s mean-latency excess over ``fast``.

    Returns, per bucket, the fraction of the mean-latency gap that the
    bucket's per-packet mean difference accounts for.  Shares sum to 1
    (each run's bucket means sum to its mean latency by conservation);
    negative shares mark buckets where the slow run is actually cheaper.
    """
    gap = slow.mean_latency_s - fast.mean_latency_s
    if gap <= 0:
        raise SimulationError(
            f"run {slow.label!r} (mean {slow.mean_latency_s * 1e9:.1f} ns) "
            f"is not slower than {fast.label!r} "
            f"(mean {fast.mean_latency_s * 1e9:.1f} ns)"
        )
    return {
        bucket: (slow.bucket_mean_s(bucket) - fast.bucket_mean_s(bucket)) / gap
        for bucket in BUCKETS
    }
