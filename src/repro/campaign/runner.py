"""Campaign orchestration: expand, schedule, cache, journal, aggregate.

:func:`run_campaign` is the one entry point: it expands a validated
spec into cells, satisfies what it can from the result cache, schedules
the rest on the worker pool, journals every terminal event, and merges
the per-cell run ledgers into **one aggregate report that is itself a
run ledger** — sections named ``<cell label>/<section label>`` — so
``python -m repro diff`` compares two campaigns exactly like two single
runs.

Determinism contract: the aggregate depends only on the spec and the
simulator — never on worker count, completion order, cache state, or
wall clock — so ``--workers 1`` and ``--workers 8`` produce
byte-identical reports, and a cached rerun reproduces the original
bytes.  Timing and reuse statistics live in the journal and the CLI
text, not in the report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ConfigError
from .cache import ResultCache
from .cells import TARGETS
from .journal import JOURNAL_SCHEMA, Journal
from .pool import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT_S,
    Job,
    JobResult,
    PoolOutcome,
    WorkerPool,
    run_serial,
)
from .spec import CampaignSpec, Cell

#: Campaign reports use the run-ledger schema family so ``repro diff``
#: loads them unchanged; the campaign-specific payload rides alongside.
REPORT_FILENAME = "report.json"
JOURNAL_FILENAME = "journal.jsonl"

#: Per-cell scalar metrics the axis tables aggregate (summed over a
#: cell's sections; lower is better for every one of them).
#: ``max_cct_s`` only appears in fabric cells' "fabric" section and
#: sums to zero elsewhere.
_TABLE_METRICS = ("duration_s", "recirculated", "max_cct_s")


@dataclass
class CellOutcome:
    """One cell's terminal state within a campaign run."""

    cell: Cell
    status: str  # ok | failed | skipped
    ledger: dict | None = None
    error: str | None = None
    cached: bool = False
    resumed: bool = False
    attempts: int = 0
    elapsed_s: float = 0.0


@dataclass
class CampaignRun:
    """Everything one campaign invocation produced."""

    spec: CampaignSpec
    outcomes: list[CellOutcome]
    report: dict | None
    report_path: Path | None
    journal_path: Path
    interrupted: bool = False
    lines: list[str] = field(default_factory=list)

    @property
    def failed(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def skipped(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed_count(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if o.status == "ok" and not o.cached and not o.resumed
        )

    @property
    def exit_code(self) -> int:
        """0 = every cell ok; 1 = failures or an interrupted campaign."""
        if self.failed or self.skipped or self.interrupted:
            return 1
        return 0

    def summary(self) -> dict:
        """JSON-friendly digest for ``--json`` output."""
        return {
            "campaign": self.spec.name,
            "spec_digest": self.spec.digest(),
            "cells": len(self.outcomes),
            "executed": self.executed_count,
            "cached": self.cached_count,
            "resumed": sum(1 for o in self.outcomes if o.resumed),
            "failed": [
                {
                    "index": o.cell.index,
                    "label": o.cell.label,
                    "error": o.error,
                }
                for o in self.failed + self.skipped
            ],
            "interrupted": self.interrupted,
            "exit_code": self.exit_code,
            "report_file": (
                str(self.report_path) if self.report_path else None
            ),
            "journal_file": str(self.journal_path),
            "report": self.report,
        }


def _aggregate_report(
    spec: CampaignSpec, outcomes: list[CellOutcome]
) -> dict:
    """Merge per-cell ledgers into one campaign run ledger.

    Only complete campaigns aggregate axis tables over every cell; a
    partial campaign still reports the sections it has, so an
    interrupted run leaves a diffable (if sparse) artifact.
    """
    from ..telemetry.ledger import build_ledger

    sections: list[dict] = []
    interval_ns = 0.0
    for outcome in outcomes:
        if outcome.ledger is None:
            continue
        interval_ns = outcome.ledger.get("interval_ns", interval_ns)
        for section in outcome.ledger.get("sections", []):
            merged = dict(section)
            merged["label"] = f"{outcome.cell.label}/{section['label']}"
            sections.append(merged)
    sections.sort(key=lambda s: s["label"])

    report = build_ledger(
        workload=f"campaign:{spec.name}",
        interval_ns=interval_ns,
        config={
            "campaign": spec.name,
            "target": spec.target,
            "mode": spec.mode,
            "axes": {k: list(v) for k, v in spec.axes.items()},
            "seed": spec.seed,
            "spec_digest": spec.digest(),
        },
        sections=sections,
    )
    report["campaign"] = {
        "cells": [
            {
                "index": o.cell.index,
                "label": o.cell.label,
                "digest": o.cell.digest,
                "params": o.cell.params,
                "status": o.status,
                "metrics": _cell_metrics(o),
            }
            for o in outcomes
        ],
        "tables": _axis_tables(spec, outcomes),
    }
    return report


def _cell_metrics(outcome: CellOutcome) -> dict | None:
    if outcome.ledger is None:
        return None
    metrics = {metric: 0.0 for metric in _TABLE_METRICS}
    metrics["delivered"] = 0.0
    for section in outcome.ledger.get("sections", []):
        for metric in _TABLE_METRICS:
            metrics[metric] += float(section.get(metric, 0.0))
        metrics["delivered"] += float(section.get("delivered", 0))
    return metrics


def _axis_tables(spec: CampaignSpec, outcomes: list[CellOutcome]) -> dict:
    """Per-axis marginal tables: metric means grouped by axis value."""
    tables: dict = {}
    for axis in spec.axes:
        groups: dict[str, list[dict]] = {}
        for outcome in outcomes:
            metrics = _cell_metrics(outcome)
            if metrics is None or axis not in outcome.cell.params:
                continue
            key = str(outcome.cell.params[axis])
            groups.setdefault(key, []).append(metrics)
        table = {}
        for key in sorted(groups):
            rows = groups[key]
            table[key] = {
                "cells": len(rows),
                **{
                    metric: sum(r[metric] for r in rows) / len(rows)
                    for metric in sorted(rows[0])
                },
            }
        if table:
            tables[axis] = table
    return tables


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    resume: bool = False,
    out_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    progress: Callable[[str], None] | None = None,
    serial: bool | None = None,
) -> CampaignRun:
    """Run (or resume) a campaign; returns the :class:`CampaignRun`.

    ``out_dir`` (default ``campaign_<name>/``) receives the journal and
    the aggregate ``report.json``.  ``cache_dir`` overrides the result
    cache root (default ``.repro-cache/``); ``use_cache=False`` runs
    every cell and stores nothing — the knob benchmarks use to measure
    honest wall-clock scaling.

    ``serial`` picks the execution path: ``True`` runs cells in-process
    one at a time (no fork, no pipes — the right shape for one-core
    boxes and debuggers), ``False`` forces the worker pool, and the
    default ``None`` auto-selects serial when only one worker is
    requested or the machine has a single CPU.  The aggregate report
    is byte-identical either way; the journal records which path ran.
    """
    if spec.target not in TARGETS:
        raise ConfigError(
            f"campaign {spec.name!r} names unknown cell target "
            f"{spec.target!r}; registered: {', '.join(sorted(TARGETS))}"
        )
    # The pool validates workers, timeout and retries, so a bad value
    # fails here, before the directory exists or the journal is reset.
    pool = WorkerPool(
        workers=workers,
        timeout_s=timeout_s,
        max_retries=max_retries,
        backoff_s=backoff_s,
    )
    cells = spec.expand()
    spec_digest = spec.digest()
    if serial is None:
        serial = workers == 1 or (os.cpu_count() or 2) == 1
    execution = "serial" if serial else "pool"
    directory = Path(out_dir) if out_dir is not None else Path(
        f"campaign_{spec.name}"
    )
    directory.mkdir(parents=True, exist_ok=True)
    journal = Journal(directory / JOURNAL_FILENAME)
    cache = (
        ResultCache(cache_dir) if cache_dir is not None else ResultCache()
    ) if use_cache else None

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    resumed_digests: set[str] = set()
    if resume:
        journal.check_resumable(spec_digest)
        resumed_digests = journal.completed_digests()
        journal.append(
            {
                "event": "campaign_resume",
                "spec_digest": spec_digest,
                "execution": execution,
            }
        )
    else:
        journal.reset()
        journal.append(
            {
                "event": "campaign_start",
                "schema": JOURNAL_SCHEMA,
                "campaign": spec.name,
                "target": spec.target,
                "spec_digest": spec_digest,
                "cells": len(cells),
                "workers": workers,
                "execution": execution,
                "source_digest": cache.source if cache else None,
            }
        )

    outcomes: dict[int, CellOutcome] = {}
    jobs: list[Job] = []
    for cell in cells:
        if resume and cell.digest in resumed_digests and cache is not None:
            ledger = cache.get(cell.digest)
            if ledger is not None:
                outcomes[cell.index] = CellOutcome(
                    cell, "ok", ledger=ledger, resumed=True
                )
                note(
                    f"[{len(outcomes)}/{len(cells)}] {cell.label}: "
                    f"already complete (resume)"
                )
                continue
        if cache is not None and not resume:
            ledger = cache.get(cell.digest)
            if ledger is not None:
                outcomes[cell.index] = CellOutcome(
                    cell, "ok", ledger=ledger, cached=True
                )
                journal.append(
                    {
                        "event": "cell_done",
                        "index": cell.index,
                        "digest": cell.digest,
                        "label": cell.label,
                        "cached": True,
                        "attempts": 0,
                    }
                )
                note(
                    f"[{len(outcomes)}/{len(cells)}] {cell.label}: "
                    f"cache hit"
                )
                continue
        jobs.append(
            Job(cell.index, cell.target, cell.job_params(), cell.label)
        )

    cell_by_index = {cell.index: cell for cell in cells}
    done_counter = [len(outcomes)]

    def on_done(job: Job, result: JobResult) -> None:
        cell = cell_by_index[job.index]
        if result.status == "ok":
            outcomes[cell.index] = CellOutcome(
                cell,
                "ok",
                ledger=result.value,
                attempts=result.attempts,
                elapsed_s=result.elapsed_s,
            )
            if cache is not None:
                cache.put(cell.digest, result.value)
            journal.append(
                {
                    "event": "cell_done",
                    "index": cell.index,
                    "digest": cell.digest,
                    "label": cell.label,
                    "cached": False,
                    "attempts": result.attempts,
                    "elapsed_s": round(result.elapsed_s, 4),
                }
            )
        elif result.status == "failed":
            outcomes[cell.index] = CellOutcome(
                cell,
                "failed",
                error=result.error,
                attempts=result.attempts,
                elapsed_s=result.elapsed_s,
            )
            journal.append(
                {
                    "event": "cell_failed",
                    "index": cell.index,
                    "digest": cell.digest,
                    "label": cell.label,
                    "attempts": result.attempts,
                    "error": result.error,
                }
            )
        else:  # skipped (interrupted before running)
            outcomes[cell.index] = CellOutcome(
                cell, "skipped", error=result.error
            )
        done_counter[0] += 1
        suffix = {
            "ok": f"ok ({result.elapsed_s:.2f}s, "
            f"attempt {result.attempts})",
            "failed": f"FAILED: {result.error}",
            "skipped": "skipped (interrupted)",
        }[result.status]
        note(
            f"[{done_counter[0]}/{len(cells)}] {cell.label}: {suffix}"
        )

    interrupted = False
    if jobs:
        if serial:
            outcome: PoolOutcome = run_serial(jobs, on_done=on_done)
        else:
            outcome = pool.run(jobs, on_done=on_done)
        interrupted = outcome.interrupted

    ordered = [outcomes[cell.index] for cell in cells]
    journal.append(
        {
            "event": "campaign_end",
            "ok": not any(o.status != "ok" for o in ordered)
            and not interrupted,
            "interrupted": interrupted,
            "cached": sum(1 for o in ordered if o.cached),
            "executed": sum(
                1
                for o in ordered
                if o.status == "ok" and not o.cached and not o.resumed
            ),
            "failed": sum(1 for o in ordered if o.status == "failed"),
        }
    )

    report = _aggregate_report(spec, ordered)
    from ..telemetry.ledger import write_ledger

    report_path = write_ledger(directory / REPORT_FILENAME, report)

    run = CampaignRun(
        spec=spec,
        outcomes=ordered,
        report=report,
        report_path=report_path,
        journal_path=journal.path,
        interrupted=interrupted,
    )
    run.lines.extend(_text_lines(run))
    return run


def _text_lines(run: CampaignRun) -> list[str]:
    spec = run.spec
    ok = [o for o in run.outcomes if o.status == "ok"]
    lines = [
        f"campaign {spec.name!r} ({spec.mode} over "
        f"{', '.join(spec.axes) or 'explicit cells'}): "
        f"{len(ok)}/{len(run.outcomes)} cells ok, "
        f"{run.cached_count} from cache, "
        f"{sum(1 for o in run.outcomes if o.resumed)} resumed, "
        f"{run.executed_count} executed"
    ]
    if run.interrupted:
        lines.append(
            "  interrupted: in-flight cells drained, remaining cells "
            "skipped; rerun with --resume to finish"
        )
    for outcome in run.failed + run.skipped:
        lines.append(
            f"  {outcome.status}: cell {outcome.cell.index} "
            f"[{outcome.cell.label}] — {outcome.error}"
        )
    executed = [o for o in run.outcomes if o.elapsed_s > 0]
    if executed:
        total = sum(o.elapsed_s for o in executed)
        slowest = max(executed, key=lambda o: o.elapsed_s)
        lines.append(
            f"  cell wall clock: {total:.2f}s total, slowest "
            f"{slowest.elapsed_s:.2f}s [{slowest.cell.label}]"
        )
    tables = (run.report or {}).get("campaign", {}).get("tables", {})
    for axis, table in tables.items():
        lines.append(f"  by {axis}:")
        for value, row in table.items():
            metrics = ", ".join(
                f"{metric} {row[metric]:.4g}"
                for metric in sorted(row)
                if metric != "cells"
            )
            lines.append(
                f"    {value:>8}: {metrics} ({row['cells']} cells)"
            )
    if run.report_path is not None:
        lines.append(f"  aggregate report -> {run.report_path}")
    lines.append(f"  journal -> {run.journal_path}")
    return lines
