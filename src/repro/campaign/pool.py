"""The campaign worker pool: one process per in-flight cell.

Cells are independent by construction (deterministic seeds, no shared
state), so the pool is a plain fan-out: up to ``workers`` subprocesses,
each executing one cell via :func:`repro.campaign.cells.run_cell` and
shipping the result back over a pipe.  What the pool adds over
``multiprocessing.Pool`` is fault shape:

- **Crash retry with backoff.**  A worker that dies without reporting
  (SIGKILL, OOM, segfault) is retried up to ``max_retries`` times, each
  attempt delayed by an exponentially growing backoff.  A cell that
  *raises* is not retried — simulator exceptions are deterministic, so
  a second attempt would fail identically.
- **Per-cell timeout.**  A cell that exceeds ``timeout_s`` wall seconds
  is killed and handled like a crash (retried, then failed).
- **Graceful SIGINT drain.**  The first Ctrl-C stops launching new
  cells but lets in-flight cells finish and report, so the journal and
  cache keep everything already paid for; the results return with
  ``interrupted`` set so the campaign can exit accordingly.  A second
  Ctrl-C abandons in-flight cells immediately.

The start method prefers ``fork`` (cheap, inherits the warm import
state) and falls back to ``spawn`` where fork is unavailable; targets
are module-level functions, so both work.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field

from ..errors import ConfigError

#: Wall-clock ceiling per cell attempt (seconds); None disables.
DEFAULT_TIMEOUT_S = 600.0

#: Crash/timeout retries per cell beyond the first attempt.
DEFAULT_MAX_RETRIES = 2

#: First retry delay; doubles per subsequent attempt.
DEFAULT_BACKOFF_S = 0.25

_POLL_S = 0.005


@dataclass(frozen=True)
class Job:
    """One schedulable cell execution."""

    index: int
    target: str
    params: dict
    label: str = ""


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    index: int
    status: str  # ok | failed | skipped
    value: dict | None = None
    error: str | None = None
    attempts: int = 0
    elapsed_s: float = 0.0


@dataclass
class PoolOutcome:
    """Everything one :meth:`WorkerPool.run` call produced."""

    results: list[JobResult] = field(default_factory=list)
    interrupted: bool = False

    def by_index(self) -> dict[int, JobResult]:
        return {r.index: r for r in self.results}


def _execute(conn, target: str, params: dict) -> None:
    """Worker entry point: run one cell, ship (status, payload) back."""
    try:
        from .cells import run_cell

        value = run_cell(target, params)
        conn.send(("ok", value))
    except BaseException as error:  # report, never escape the worker
        conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


def run_serial(jobs: list[Job], on_done=None) -> PoolOutcome:
    """Execute every job in-process, one after another.

    The degenerate pool for single-worker boxes: no subprocess, no
    pipe, no fork — each cell runs in the caller's interpreter.  The
    fault shape narrows accordingly: there is no crash/timeout retry
    (a crash takes the campaign down with it, as it would any plain
    script), a raising cell fails permanently after one attempt, and
    the first Ctrl-C skips every cell not yet started — the finished
    ones are already journaled, so ``--resume`` picks up from there.
    """
    from .cells import run_cell

    outcome = PoolOutcome()

    def finish(job: Job, result: JobResult) -> None:
        outcome.results.append(result)
        if on_done is not None:
            on_done(job, result)

    for job in jobs:
        if outcome.interrupted:
            finish(
                job,
                JobResult(
                    job.index,
                    "skipped",
                    error="campaign interrupted before this cell ran",
                ),
            )
            continue
        started = time.monotonic()
        try:
            value = run_cell(job.target, job.params)
        except KeyboardInterrupt:
            outcome.interrupted = True
            finish(
                job,
                JobResult(
                    job.index,
                    "skipped",
                    error="campaign interrupted before this cell ran",
                    attempts=1,
                ),
            )
            continue
        except Exception as error:
            finish(
                job,
                JobResult(
                    job.index,
                    "failed",
                    error=f"{type(error).__name__}: {error}",
                    attempts=1,
                    elapsed_s=time.monotonic() - started,
                ),
            )
            continue
        finish(
            job,
            JobResult(
                job.index,
                "ok",
                value=value,
                attempts=1,
                elapsed_s=time.monotonic() - started,
            ),
        )
    outcome.results.sort(key=lambda r: r.index)
    return outcome


@dataclass
class _Running:
    job: Job
    process: object
    conn: object
    started: float
    attempt: int


class WorkerPool:
    """Bounded-parallelism executor with crash retry and SIGINT drain."""

    def __init__(
        self,
        workers: int = 1,
        timeout_s: float | None = DEFAULT_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"pool needs >= 1 worker, got {workers}")
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ConfigError(
                f"cell timeout must be positive and finite, got {timeout_s}"
            )
        if max_retries < 0:
            raise ConfigError(
                f"max retries must be >= 0, got {max_retries}"
            )
        if backoff_s < 0:
            raise ConfigError(f"backoff must be >= 0, got {backoff_s}")
        self.workers = workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # --- scheduling -------------------------------------------------------------------

    def _launch(self, job: Job, attempt: int) -> _Running:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_execute,
            args=(child_conn, job.target, job.params),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Running(job, process, parent_conn, time.monotonic(), attempt)

    def run(self, jobs: list[Job], on_done=None) -> PoolOutcome:
        """Execute every job; results come back ordered by job index.

        ``on_done(job, result)`` fires as each job reaches a terminal
        state (in completion order — the caller journals these).
        """
        outcome = PoolOutcome()
        pending: list[tuple[float, int, Job]] = [
            (0.0, attempt_zero, job)
            for attempt_zero, job in enumerate(jobs)
        ]
        # (not_before, tiebreak, job); attempts tracked separately.
        attempts: dict[int, int] = {job.index: 0 for job in jobs}
        running: list[_Running] = []
        tiebreak = len(pending)

        def finish(job: Job, result: JobResult) -> None:
            outcome.results.append(result)
            if on_done is not None:
                on_done(job, result)

        while pending or running:
            try:
                now = time.monotonic()
                # Launch whatever fits, respecting retry backoff.
                if not outcome.interrupted:
                    ready = [
                        entry for entry in pending if entry[0] <= now
                    ]
                    for entry in sorted(ready, key=lambda e: e[1]):
                        if len(running) >= self.workers:
                            break
                        pending.remove(entry)
                        _, _, job = entry
                        attempts[job.index] += 1
                        running.append(
                            self._launch(job, attempts[job.index])
                        )
                # Collect finished / crashed / timed-out workers.
                still: list[_Running] = []
                for slot in running:
                    outcome_kind = None  # ok | error | crash
                    payload = None
                    if slot.conn.poll():
                        try:
                            outcome_kind, payload = slot.conn.recv()
                        except (EOFError, OSError):
                            outcome_kind = "crash"
                        slot.process.join()
                    elif not slot.process.is_alive():
                        slot.process.join()
                        outcome_kind = "crash"
                    elif (
                        self.timeout_s is not None
                        and now - slot.started > self.timeout_s
                    ):
                        slot.process.kill()
                        slot.process.join()
                        outcome_kind = "timeout"
                    if outcome_kind is None:
                        still.append(slot)
                        continue
                    slot.conn.close()
                    elapsed = time.monotonic() - slot.started
                    if outcome_kind == "ok":
                        finish(
                            slot.job,
                            JobResult(
                                slot.job.index,
                                "ok",
                                value=payload,
                                attempts=slot.attempt,
                                elapsed_s=elapsed,
                            ),
                        )
                    elif outcome_kind == "error":
                        # Deterministic failure: retrying cannot help.
                        finish(
                            slot.job,
                            JobResult(
                                slot.job.index,
                                "failed",
                                error=payload,
                                attempts=slot.attempt,
                                elapsed_s=elapsed,
                            ),
                        )
                    else:  # crash | timeout
                        reason = (
                            f"worker exceeded {self.timeout_s:g}s timeout"
                            if outcome_kind == "timeout"
                            else "worker died without reporting "
                            "(killed or crashed)"
                        )
                        if (
                            slot.attempt <= self.max_retries
                            and not outcome.interrupted
                        ):
                            delay = self.backoff_s * (
                                2 ** (slot.attempt - 1)
                            )
                            tiebreak += 1
                            pending.append(
                                (now + delay, tiebreak, slot.job)
                            )
                        else:
                            finish(
                                slot.job,
                                JobResult(
                                    slot.job.index,
                                    "failed",
                                    error=f"{reason}; gave up after "
                                    f"{slot.attempt} attempt(s)",
                                    attempts=slot.attempt,
                                    elapsed_s=elapsed,
                                ),
                            )
                running = still
                if outcome.interrupted and not running:
                    break
                if running or pending:
                    time.sleep(_POLL_S)
            except KeyboardInterrupt:
                if outcome.interrupted:
                    # Second interrupt: abandon in-flight cells.
                    for slot in running:
                        slot.process.kill()
                        slot.process.join()
                        slot.conn.close()
                    running = []
                    break
                outcome.interrupted = True

        if outcome.interrupted:
            done = {r.index for r in outcome.results}
            for job in jobs:
                if job.index not in done:
                    finish(
                        job,
                        JobResult(
                            job.index,
                            "skipped",
                            error="campaign interrupted before this "
                            "cell ran",
                            attempts=attempts.get(job.index, 0),
                        ),
                    )
        outcome.results.sort(key=lambda r: r.index)
        return outcome
