"""Run ledgers: one JSON document per run, and the ``repro diff`` comparator.

A *run ledger* is the machine-readable record of one run, whichever
subcommand made it: ``monitor``, ``fabric``, ``serve``, ``spans``,
``stateful``, a campaign cell or a campaign report.  This module is the
only one that knows the format.  Every ledger is one
:data:`LEDGER_SCHEMA` document built by :func:`build_ledger`::

    {"schema": "repro.run_ledger/2", "workload": ..., "git_sha": ...,
     "config": {...}, "sections": [...], <named payloads>}

``config`` holds every run parameter, once.  Each section is
``{"label", "series", ...}``: ``series`` maps a name to a summary
(``samples``/``mean``/``peak``/``p99``/``last``), and a section may add
terminal counts, ``counters`` and its own payloads (a monitor section's
``attribution`` and ``littles_law``).  Document-level payloads are named
by their producer: ``windows``, ``slo`` and ``totals`` (serve),
``critical_paths`` (spans), ``campaign`` (campaign reports), and
``totals`` again where a campaign reads a run's own numbers (fabric,
stateful and single-switch cell ledgers).

Ledgers exist to be *diffed*: ``python -m repro diff A.json B.json``
compares two ledgers series-by-series and emits a verdict table —
improved / regressed / unchanged — with a non-zero exit when any series
regressed past the threshold.  The verdict compares mean values; peaks
are reported alongside for context.  Which way a series is better comes
from one table, :data:`HIGHER_IS_BETTER`: the goodness metrics it names
(throughput, SLO compliance, detection and hit rates, span coverage)
improve when they rise, and every other series — occupancy, backlog,
access counts, loop depth, utilization, latency — is a pressure metric
that improves when it falls.  A series present in only one ledger is
``added``/``removed`` (structural, never a regression by itself).
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError

#: The one ledger format identifier; bump the suffix on breaking changes.
LEDGER_SCHEMA = "repro.run_ledger/2"

#: The series that are better when they rise: delivered and offered
#: traffic, throughput and completed coflows (serve windows, stateful
#: runs), SLO compliance, the stateful primitives' quality metrics
#: (token-bucket goodput, detection and cache-hit rates) and span
#: sampling coverage and counts.  Every other series is lower-is-better.
HIGHER_IS_BETTER = frozenset(
    {
        "delivered",
        "offered",
        "offered_pps",
        "throughput_pps",
        "coflows_completed",
        "latency_samples",
        "slo.compliance",
        "goodput_pps",
        "detection_rate",
        "hit_rate",
        "span.coverage",
        "span.packets_sampled",
        "span.count",
        "span.records",
    }
)

#: Default relative-change tolerance (fraction) before a verdict flips.
DEFAULT_THRESHOLD = 0.05

#: Synthetic series name for the attribution table's mean latency, so the
#: end-to-end number participates in the same verdict table.
LATENCY_SERIES = "attribution.mean_latency_ns"


def git_sha() -> str | None:
    """Best-effort HEAD SHA of the current working directory's repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def build_ledger(
    workload: str, config: dict, sections: list[dict], **payloads
) -> dict:
    """Assemble a ledger document (see :data:`LEDGER_SCHEMA`).

    ``config`` holds the run's parameters; each entry of ``sections``
    carries ``label`` and ``series`` (name ->
    :meth:`~repro.telemetry.monitor.SeriesSummary.to_json` dicts).
    ``payloads`` become the document's named top-level payloads.
    """
    return {
        "schema": LEDGER_SCHEMA,
        "workload": workload,
        "git_sha": git_sha(),
        "config": config,
        "sections": sections,
        **payloads,
    }


def point(value: float) -> dict:
    """A single-sample series summary, for a scalar run outcome."""
    value = float(value)
    return {
        "samples": 1,
        "mean": value,
        "peak": value,
        "p99": value,
        "last": value,
    }


@dataclass
class SwitchSection:
    """One switch's run: its section label, telemetry hub and result."""

    label: str
    telemetry: object  # repro.telemetry.Telemetry, or None
    result: object  # repro.arch.switch.SwitchRunResult

    def to_json(self) -> dict:
        """The run-ledger section: terminal counts, counters and, when the
        hub carries a monitor, its series summaries."""
        result = self.result
        entry = {
            "label": self.label,
            "duration_s": result.duration_s,
            "delivered": len(result.delivered),
            "consumed": result.consumed,
            "recirculated": result.recirculated_packets,
            "samples": 0,
            "series": {},
            "counters": result.counters,
        }
        monitor = getattr(self.telemetry, "monitor", None)
        if monitor is not None:
            entry["samples"] = len(monitor)
            entry["series"] = {
                name: summary.to_json()
                for name, summary in monitor.summaries().items()
            }
        return entry

    def totals(self) -> dict:
        """The run's own numbers, as a single-switch ledger's ``totals``."""
        result = self.result
        return {
            "duration_s": result.duration_s,
            "delivered": len(result.delivered),
            "recirculated": result.recirculated_packets,
        }


def write_ledger(path: str | Path, ledger: dict) -> Path:
    """Write a ledger as deterministic JSON; returns the path written.

    The write is atomic (temp-then-rename) so parallel campaign cells
    and a reader diffing the ledger can never observe a partial file.
    """
    from ..ioutil import atomic_write_text

    return atomic_write_text(
        path, json.dumps(ledger, indent=1, sort_keys=True) + "\n"
    )


def load_ledger(path: str | Path) -> dict:
    """Read a ledger file; refuses any schema but :data:`LEDGER_SCHEMA`."""
    source = Path(path)
    try:
        document = json.loads(source.read_text())
    except json.JSONDecodeError as error:
        raise ConfigError(f"{source} is not valid JSON: {error}")
    if not isinstance(document, dict) or "schema" not in document:
        raise ConfigError(f"{source} is not a run ledger (no schema field)")
    if document["schema"] != LEDGER_SCHEMA:
        raise ConfigError(
            f"{source} has schema {document['schema']!r}, expected "
            f"{LEDGER_SCHEMA!r}"
        )
    return document


# --- diffing ---------------------------------------------------------------------


@dataclass(frozen=True)
class DiffRow:
    """One series' verdict between two ledgers."""

    section: str
    series: str
    verdict: str  # unchanged | improved | regressed | added | removed
    base_mean: float | None
    new_mean: float | None
    base_peak: float | None
    new_peak: float | None
    delta: float | None  # relative mean change; None when undefined
    direction: str = "lower"  # which way is better: "lower" | "higher"

    def to_json(self) -> dict:
        return {
            "section": self.section,
            "series": self.series,
            "verdict": self.verdict,
            "base_mean": self.base_mean,
            "new_mean": self.new_mean,
            "base_peak": self.base_peak,
            "new_peak": self.new_peak,
            "delta": self.delta,
            "direction": self.direction,
        }


@dataclass
class LedgerDiff:
    """Series-by-series comparison of two run ledgers."""

    threshold: float
    base_workload: str
    new_workload: str
    rows: list[DiffRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.verdict == "regressed"]

    @property
    def improvements(self) -> list[DiffRow]:
        return [row for row in self.rows if row.verdict == "improved"]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_regression else 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.verdict] = out.get(row.verdict, 0) + 1
        return out

    def lines(self) -> list[str]:
        counts = self.counts()
        header = ", ".join(
            f"{counts.get(verdict, 0)} {verdict}"
            for verdict in ("regressed", "improved", "unchanged")
        )
        out = [
            f"ledger diff — {self.base_workload} vs {self.new_workload} "
            f"(threshold {self.threshold:.1%}): {header}"
        ]
        out.extend(f"  note: {note}" for note in self.notes)
        interesting = [
            row for row in self.rows if row.verdict != "unchanged"
        ]
        if not interesting:
            out.append("  every series unchanged within threshold")
            return out
        out.append(
            f"  {'verdict':<10} {'section':<16} {'series':<44} "
            f"{'base mean':>12} {'new mean':>12} {'delta':>8}"
        )
        for row in interesting:
            delta = (
                f"{row.delta:+.1%}"
                if row.delta is not None and math.isfinite(row.delta)
                else "n/a"
            )
            base = "—" if row.base_mean is None else f"{row.base_mean:.6g}"
            new = "—" if row.new_mean is None else f"{row.new_mean:.6g}"
            out.append(
                f"  {row.verdict:<10} {row.section:<16} {row.series:<44} "
                f"{base:>12} {new:>12} {delta:>8}"
            )
        return out

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "base_workload": self.base_workload,
            "new_workload": self.new_workload,
            "counts": self.counts(),
            "has_regression": self.has_regression,
            "notes": self.notes,
            "rows": [row.to_json() for row in self.rows],
        }


def _series_of(section: dict) -> dict[str, dict]:
    """A section's comparable series, with the attribution mean latency
    folded in as a synthetic series."""
    series = dict(section.get("series", {}))
    attribution = section.get("attribution")
    if attribution and attribution.get("packets"):
        mean_ns = attribution.get("mean_latency_ns", 0.0)
        series[LATENCY_SERIES] = {"mean": mean_ns, "peak": mean_ns}
    return series


def series_direction(name: str) -> str:
    """Which way a series is better: ``"higher"`` for the names in
    :data:`HIGHER_IS_BETTER`, ``"lower"`` for every other series."""
    return "higher" if name in HIGHER_IS_BETTER else "lower"


def _verdict(
    base_mean: float,
    new_mean: float,
    threshold: float,
    direction: str = "lower",
):
    """(verdict, relative delta) for one series under ``direction``."""
    higher_is_better = direction == "higher"
    if base_mean == 0.0 and new_mean == 0.0:
        return "unchanged", 0.0
    if base_mean == 0.0:
        # A value appeared where there was none: infinite relative
        # growth, always past any threshold.  Pressure appearing is a
        # regression; throughput appearing is an improvement.
        verdict = "improved" if higher_is_better and new_mean > 0 else "regressed"
        return verdict, math.inf
    delta = (new_mean - base_mean) / abs(base_mean)
    worse = delta < -threshold if higher_is_better else delta > threshold
    better = delta > threshold if higher_is_better else delta < -threshold
    if worse:
        return "regressed", delta
    if better:
        return "improved", delta
    return "unchanged", delta


def diff_ledgers(
    base: dict,
    new: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> LedgerDiff:
    """Compare two ledgers series-by-series.

    Sections pair by label; series pair by name within a section.  The
    verdict tests the relative change of the *mean* against
    ``threshold`` (peaks ride along in the report).  Diffing a ledger
    against itself yields all-unchanged and exit code 0 by construction.
    """
    if not 0 <= threshold < math.inf:  # also rejects NaN
        raise ConfigError(
            f"threshold must be >= 0 and finite, got {threshold}"
        )
    diff = LedgerDiff(
        threshold=threshold,
        base_workload=base.get("workload", "?"),
        new_workload=new.get("workload", "?"),
    )
    if base.get("workload") != new.get("workload"):
        diff.notes.append(
            f"comparing different workloads "
            f"({base.get('workload')!r} vs {new.get('workload')!r})"
        )
    base_sections = {s["label"]: s for s in base.get("sections", [])}
    new_sections = {s["label"]: s for s in new.get("sections", [])}
    for label in sorted(set(base_sections) - set(new_sections)):
        diff.notes.append(f"section {label!r} only in base ledger")
    for label in sorted(set(new_sections) - set(base_sections)):
        diff.notes.append(f"section {label!r} only in new ledger")

    for label in sorted(set(base_sections) & set(new_sections)):
        base_series = _series_of(base_sections[label])
        new_series = _series_of(new_sections[label])
        for name in sorted(set(base_series) | set(new_series)):
            old = base_series.get(name)
            current = new_series.get(name)
            direction = series_direction(name)
            if old is None:
                diff.rows.append(
                    DiffRow(
                        label, name, "added",
                        None, current.get("mean"),
                        None, current.get("peak"),
                        None, direction,
                    )
                )
                continue
            if current is None:
                diff.rows.append(
                    DiffRow(
                        label, name, "removed",
                        old.get("mean"), None,
                        old.get("peak"), None,
                        None, direction,
                    )
                )
                continue
            verdict, delta = _verdict(
                float(old.get("mean", 0.0)),
                float(current.get("mean", 0.0)),
                threshold,
                direction,
            )
            diff.rows.append(
                DiffRow(
                    label, name, verdict,
                    old.get("mean"), current.get("mean"),
                    old.get("peak"), current.get("peak"),
                    delta, direction,
                )
            )
    return diff
