"""Worker pool fault handling: crash retry, timeouts, determinism."""

from __future__ import annotations

import math

import pytest

from repro.campaign.pool import Job, WorkerPool, run_serial
from repro.errors import ConfigError


def _echo_jobs(count: int) -> list[Job]:
    return [
        Job(i, "_echo", {"seed": i, "value": i}, label=f"cell{i}")
        for i in range(count)
    ]


def test_results_ordered_by_index_regardless_of_workers():
    for workers in (1, 3):
        outcome = WorkerPool(workers=workers).run(_echo_jobs(5))
        assert [r.index for r in outcome.results] == list(range(5))
        assert all(r.status == "ok" for r in outcome.results)
        assert [
            r.value["sections"][0]["duration_s"] for r in outcome.results
        ] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not outcome.interrupted


def test_sigkilled_worker_is_retried_and_succeeds(tmp_path):
    jobs = [
        Job(
            0,
            "_flaky",
            {
                "seed": 0,
                "sentinel": str(tmp_path / "sentinel"),
                "mode": "kill-once",
            },
        )
    ]
    outcome = WorkerPool(workers=1, backoff_s=0.01).run(jobs)
    (result,) = outcome.results
    assert result.status == "ok"
    assert result.attempts == 2  # first attempt SIGKILLed itself


def test_deterministic_exception_is_not_retried(tmp_path):
    jobs = [
        Job(
            0,
            "_flaky",
            {
                "seed": 0,
                "sentinel": str(tmp_path / "sentinel"),
                "mode": "fail-once",
            },
        )
    ]
    outcome = WorkerPool(workers=1, backoff_s=0.01).run(jobs)
    (result,) = outcome.results
    assert result.status == "failed"
    assert result.attempts == 1
    assert "injected failure" in result.error


def test_unknown_target_fails_without_retry():
    outcome = WorkerPool(workers=1).run([Job(0, "no-such", {})])
    (result,) = outcome.results
    assert result.status == "failed"
    assert "unknown cell target" in result.error


def test_timeout_kills_and_eventually_fails(tmp_path):
    jobs = [
        Job(
            0,
            "_flaky",
            {
                "seed": 0,
                "sentinel": str(tmp_path / "sentinel"),
                "mode": "sleep-always",
                "sleep_s": 30.0,
            },
        )
    ]
    outcome = WorkerPool(
        workers=1, timeout_s=0.2, max_retries=1, backoff_s=0.01
    ).run(jobs)
    (result,) = outcome.results
    assert result.status == "failed"
    assert result.attempts == 2  # original + one retry, both timed out
    assert "timeout" in result.error


def test_failures_do_not_block_other_cells(tmp_path):
    jobs = _echo_jobs(3) + [
        Job(
            3,
            "_flaky",
            {
                "seed": 3,
                "sentinel": str(tmp_path / "sentinel"),
                "mode": "fail-once",
            },
        )
    ]
    outcome = WorkerPool(workers=2, backoff_s=0.01).run(jobs)
    statuses = {r.index: r.status for r in outcome.results}
    assert statuses == {0: "ok", 1: "ok", 2: "ok", 3: "failed"}


def test_pool_parameter_validation():
    with pytest.raises(ConfigError):
        WorkerPool(workers=0)
    with pytest.raises(ConfigError):
        WorkerPool(timeout_s=0)
    with pytest.raises(ConfigError):
        WorkerPool(max_retries=-1)


@pytest.mark.parametrize("timeout_s", [math.nan, math.inf, -math.inf])
def test_pool_rejects_non_finite_timeout(timeout_s):
    with pytest.raises(ConfigError, match="finite"):
        WorkerPool(timeout_s=timeout_s)


def test_on_done_fires_once_per_job():
    seen: list[int] = []
    WorkerPool(workers=2).run(
        _echo_jobs(4), on_done=lambda job, result: seen.append(job.index)
    )
    assert sorted(seen) == [0, 1, 2, 3]


class TestSerial:
    def test_serial_matches_pool_values(self):
        serial = run_serial(_echo_jobs(4))
        pooled = WorkerPool(workers=2).run(_echo_jobs(4))
        assert [r.index for r in serial.results] == [0, 1, 2, 3]
        assert all(r.status == "ok" for r in serial.results)
        assert [r.value for r in serial.results] == [
            r.value for r in pooled.results
        ]
        assert not serial.interrupted

    def test_serial_failure_is_permanent_single_attempt(self, tmp_path):
        jobs = _echo_jobs(1) + [
            Job(
                1,
                "_flaky",
                {
                    "seed": 1,
                    "sentinel": str(tmp_path / "sentinel"),
                    "mode": "fail-once",
                },
            )
        ] + [Job(2, "_echo", {"seed": 2, "value": 2})]
        outcome = run_serial(jobs)
        statuses = {r.index: r.status for r in outcome.results}
        assert statuses == {0: "ok", 1: "failed", 2: "ok"}
        failed = outcome.by_index()[1]
        assert failed.attempts == 1
        assert "injected failure" in failed.error

    def test_serial_on_done_fires_in_job_order(self):
        seen: list[int] = []
        run_serial(
            _echo_jobs(3),
            on_done=lambda job, result: seen.append(job.index),
        )
        assert seen == [0, 1, 2]
