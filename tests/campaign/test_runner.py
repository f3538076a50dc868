"""Campaign orchestration: determinism, caching, resume, aggregation."""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import CampaignSpec, Journal, run_campaign
from repro.errors import ConfigError


def _echo_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="mini",
        target="_echo",
        mode="grid",
        axes={"value": [1, 2], "tag": [10, 20]},
        seed=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _run(spec, tmp_path, run_id, **kwargs):
    kwargs.setdefault("out_dir", tmp_path / f"out{run_id}")
    kwargs.setdefault("cache_dir", tmp_path / f"cache{run_id}")
    return run_campaign(spec, **kwargs)


class TestDeterminism:
    def test_worker_count_does_not_change_report_bytes(self, tmp_path):
        serial = _run(_echo_spec(), tmp_path, "serial", workers=1)
        parallel = _run(_echo_spec(), tmp_path, "parallel", workers=4)
        assert serial.exit_code == parallel.exit_code == 0
        assert (
            serial.report_path.read_bytes()
            == parallel.report_path.read_bytes()
        )

    def test_cached_rerun_reproduces_report_bytes(self, tmp_path):
        cache = tmp_path / "shared_cache"
        first = _run(_echo_spec(), tmp_path, "a", cache_dir=cache)
        second = _run(_echo_spec(), tmp_path, "b", cache_dir=cache)
        assert second.cached_count == len(second.outcomes) == 4
        assert second.executed_count == 0
        assert (
            first.report_path.read_bytes()
            == second.report_path.read_bytes()
        )

    def test_no_cache_mode_stores_and_reuses_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        first = _run(
            _echo_spec(), tmp_path, "a", cache_dir=cache, use_cache=False
        )
        assert first.cached_count == 0
        assert not cache.exists()
        second = _run(
            _echo_spec(), tmp_path, "b", cache_dir=cache, use_cache=False
        )
        assert second.cached_count == 0
        assert second.executed_count == 4


class TestAggregation:
    def test_report_is_a_diffable_run_ledger(self, tmp_path):
        from repro.telemetry.ledger import diff_ledgers, load_ledger

        run = _run(_echo_spec(), tmp_path, "a")
        document = load_ledger(run.report_path)
        assert document["workload"] == "campaign:mini"
        labels = [s["label"] for s in document["sections"]]
        assert labels == sorted(labels)
        assert "value=1,tag=10/echo" in labels
        diff = diff_ledgers(document, document)
        assert diff.exit_code == 0

    def test_axis_tables_group_by_value(self, tmp_path):
        run = _run(_echo_spec(), tmp_path, "a")
        tables = run.report["campaign"]["tables"]
        assert set(tables) == {"value", "tag"}
        assert tables["value"]["1"]["cells"] == 2
        assert tables["value"]["2"]["duration_s"] == pytest.approx(2.0)

    def test_unknown_target_rejected_before_any_execution(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown cell target"):
            _run(_echo_spec(target="missing"), tmp_path, "a")


class TestFaults:
    def test_sigkilled_cell_retried_and_campaign_completes(self, tmp_path):
        spec = CampaignSpec(
            name="flaky",
            target="_flaky",
            mode="list",
            cells=(
                {"mode": "kill-once", "sentinel": str(tmp_path / "s0")},
                {"mode": "ok", "sentinel": str(tmp_path / "s1")},
            ),
        )
        # serial=False: a kill-once cell run in-process would SIGKILL
        # the test runner itself, so pin the subprocess pool path.
        run = _run(
            spec, tmp_path, "a", workers=2, backoff_s=0.01, serial=False
        )
        assert run.exit_code == 0
        killed = run.outcomes[0]
        assert killed.status == "ok" and killed.attempts == 2

    def test_permanent_failure_sets_exit_code_one(self, tmp_path):
        spec = _echo_spec(
            name="partial",
            target="_flaky",
            mode="list",
            axes={},
            cells=(
                {"mode": "fail-once", "sentinel": str(tmp_path / "s0"),
                 "attempt": 1},
                {"mode": "fail-once", "sentinel": str(tmp_path / "s0"),
                 "attempt": 2},
            ),
        )
        # Both cells share a sentinel: the first to run creates it and
        # fails; the second finds it and succeeds.
        run = _run(spec, tmp_path, "a", workers=1, backoff_s=0.01)
        assert run.exit_code == 1
        assert len(run.failed) == 1
        # The report still aggregates the completed cell.
        assert len(run.report["sections"]) == 1


class TestSerialExecution:
    def test_one_worker_auto_selects_serial_and_journals_it(
        self, tmp_path
    ):
        run = _run(_echo_spec(), tmp_path, "a", workers=1)
        assert run.exit_code == 0
        start = Journal(run.journal_path).read()[0]
        assert start["event"] == "campaign_start"
        assert start["execution"] == "serial"

    def test_forced_pool_is_journaled_as_pool(self, tmp_path):
        run = _run(_echo_spec(), tmp_path, "a", workers=1, serial=False)
        assert run.exit_code == 0
        start = Journal(run.journal_path).read()[0]
        assert start["execution"] == "pool"

    def test_serial_and_pool_reports_are_byte_identical(self, tmp_path):
        serial = _run(_echo_spec(), tmp_path, "s", serial=True)
        pooled = _run(
            _echo_spec(), tmp_path, "p", workers=2, serial=False
        )
        assert serial.exit_code == pooled.exit_code == 0
        assert (
            serial.report_path.read_bytes()
            == pooled.report_path.read_bytes()
        )

    def test_serial_failure_does_not_block_later_cells(self, tmp_path):
        spec = _echo_spec(
            name="serialfail",
            target="_flaky",
            mode="list",
            axes={},
            cells=(
                {"mode": "fail-once", "sentinel": str(tmp_path / "s0"),
                 "cell": 0},
                {"mode": "ok", "sentinel": str(tmp_path / "s1"),
                 "cell": 1},
            ),
        )
        run = _run(spec, tmp_path, "a", serial=True)
        assert run.exit_code == 1
        assert [o.status for o in run.outcomes] == ["failed", "ok"]
        assert run.failed[0].attempts == 1


class TestResume:
    def test_resume_reruns_only_incomplete_cells(self, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        sentinel = tmp_path / "sentinel"
        spec = CampaignSpec(
            name="resumable",
            target="_flaky",
            mode="list",
            cells=(
                {"mode": "ok", "sentinel": str(tmp_path / "other"),
                 "cell": 0},
                {"mode": "fail-once", "sentinel": str(sentinel),
                 "cell": 1},
                {"mode": "ok", "sentinel": str(tmp_path / "other2"),
                 "cell": 2},
            ),
        )
        first = run_campaign(
            spec, out_dir=out, cache_dir=cache, backoff_s=0.01
        )
        assert first.exit_code == 1
        assert len(first.failed) == 1

        resumed = run_campaign(
            spec,
            out_dir=out,
            cache_dir=cache,
            resume=True,
            backoff_s=0.01,
        )
        assert resumed.exit_code == 0
        # Only the previously-failed cell executed; the others replayed
        # from journal + cache without running.
        assert resumed.executed_count == 1
        assert sum(1 for o in resumed.outcomes if o.resumed) == 2
        events = [r.get("event") for r in Journal(out / "journal.jsonl").read()]
        assert "campaign_resume" in events
        assert len(resumed.report["sections"]) == 3

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(ConfigError, match="campaign_start"):
            run_campaign(
                _echo_spec(),
                out_dir=tmp_path / "fresh",
                cache_dir=tmp_path / "cache",
                resume=True,
            )

    def test_resume_refuses_a_changed_spec(self, tmp_path):
        out = tmp_path / "out"
        _run(_echo_spec(), tmp_path, "a", out_dir=out)
        with pytest.raises(ConfigError, match="spec changed"):
            run_campaign(
                _echo_spec(seed=4),
                out_dir=out,
                cache_dir=tmp_path / "cachea",
                resume=True,
            )


class TestJournal:
    def test_journal_records_every_terminal_event(self, tmp_path):
        run = _run(_echo_spec(), tmp_path, "a")
        records = Journal(run.journal_path).read()
        events = [r["event"] for r in records]
        assert events[0] == "campaign_start"
        assert events.count("cell_done") == 4
        assert events[-1] == "campaign_end"
        assert records[-1]["ok"] is True

    @pytest.mark.parametrize(
        "bad",
        [{"workers": 0}, {"max_retries": -1}, {"timeout_s": math.nan}],
        ids=["workers", "retries", "timeout"],
    )
    def test_rejected_arguments_write_nothing(self, tmp_path, bad):
        """A call the pool refuses neither resets a finished campaign's
        journal nor creates a new output directory."""
        run = _run(_echo_spec(), tmp_path, "a")
        before = run.journal_path.read_bytes()
        with pytest.raises(ConfigError):
            _run(_echo_spec(), tmp_path, "a", **bad)
        assert run.journal_path.read_bytes() == before
        with pytest.raises(ConfigError):
            _run(_echo_spec(), tmp_path, "b", **bad)
        assert not (tmp_path / "outb").exists()

    def test_journal_tolerates_a_torn_tail(self, tmp_path):
        run = _run(_echo_spec(), tmp_path, "a")
        with run.journal_path.open("a") as handle:
            handle.write('{"event": "cell_do')  # torn write
        records = Journal(run.journal_path).read()
        assert all("event" in r for r in records)


def test_design_space_cell_produces_a_monitored_ledger(tmp_path):
    """One real simulator cell end-to-end (kept tiny for speed)."""
    from repro.campaign import run_cell

    ledger = run_cell(
        "design-space",
        {
            "array_width": 8,
            "demux_factor": 1,
            "port_speed_gbps": 100,
            "seed": 1,
            "vector": 32,
        },
    )
    assert ledger["schema"].startswith("repro.run_ledger")
    (section,) = ledger["sections"]
    assert section["delivered"] > 0
    assert section["series"]  # monitored resource series present


def test_coflow_mix_cell_validates_app_names():
    from repro.campaign import run_cell

    with pytest.raises(ConfigError, match="coflow-mix app"):
        run_cell("coflow-mix", {"app": "nope", "seed": 1})
