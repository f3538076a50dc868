"""Run-ledger and ``repro diff`` tests: schema, verdicts, CLI exit codes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.telemetry.ledger import (
    DEFAULT_THRESHOLD,
    LEDGER_SCHEMA,
    build_ledger,
    diff_ledgers,
    load_ledger,
    series_direction,
    write_ledger,
)
from repro.telemetry.runner import run_monitor


def _ledger(series, label="s", workload="w", attribution=None):
    """A minimal one-section ledger from {name: (mean, peak)}."""
    section = {
        "label": label,
        "series": {
            name: {"samples": 3, "mean": mean, "peak": peak, "p99": peak,
                   "last": mean}
            for name, (mean, peak) in series.items()
        },
    }
    if attribution is not None:
        section["attribution"] = attribution
    return build_ledger(workload, {"interval_ns": 50.0}, [section])


class TestLedgerIO:
    def test_round_trip(self, tmp_path):
        ledger = _ledger({"a.x": (1.0, 2.0)})
        path = write_ledger(tmp_path / "l.json", ledger)
        assert load_ledger(path) == ledger
        assert ledger["schema"] == LEDGER_SCHEMA

    def test_written_json_is_deterministic(self, tmp_path):
        ledger = _ledger({"b": (1.0, 1.0), "a": (2.0, 2.0)})
        first = write_ledger(tmp_path / "1.json", ledger).read_bytes()
        second = write_ledger(tmp_path / "2.json", ledger).read_bytes()
        assert first == second

    def test_load_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_ledger(bad)

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ConfigError, match="schema"):
            load_ledger(bad)

    @pytest.mark.parametrize(
        "schema",
        [
            "repro.run_ledger/1",
            "repro.serve_ledger/1",
            "repro.span_ledger/1",
            "repro.stateful_ledger/1",
        ],
    )
    def test_load_refuses_old_schema_ids(self, tmp_path, capsys, schema):
        """The four retired ids fail with one line naming both ids, and
        ``repro diff`` exits 2 on them."""
        old = _ledger({"a.x": (1.0, 1.0)})
        old["schema"] = schema
        path = write_ledger(tmp_path / "old.json", old)
        with pytest.raises(ConfigError) as error:
            load_ledger(path)
        message = str(error.value)
        assert "\n" not in message
        assert schema in message and LEDGER_SCHEMA in message
        assert main(["diff", str(path), str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_one_layout(self):
        ledger = build_ledger("w", {"seed": 1}, [], totals={"delivered": 3})
        assert sorted(ledger) == [
            "config", "git_sha", "schema", "sections", "totals", "workload",
        ]
        assert ledger["config"] == {"seed": 1}


class TestVerdicts:
    def test_self_diff_all_unchanged(self):
        ledger = _ledger({"a.x": (1.0, 2.0), "a.y": (0.0, 0.0)})
        diff = diff_ledgers(ledger, ledger)
        assert not diff.has_regression
        assert diff.exit_code == 0
        assert diff.counts() == {"unchanged": 2}
        assert all(row.delta == 0.0 for row in diff.rows)

    def test_regression_past_threshold(self):
        base = _ledger({"tm.occupancy": (10.0, 20.0)})
        new = _ledger({"tm.occupancy": (11.0, 20.0)})
        diff = diff_ledgers(base, new, threshold=0.05)
        assert diff.exit_code == 1
        (row,) = diff.regressions
        assert row.series == "tm.occupancy"
        assert row.delta == pytest.approx(0.10)

    def test_improvement_past_threshold(self):
        base = _ledger({"tm.occupancy": (10.0, 20.0)})
        new = _ledger({"tm.occupancy": (8.0, 20.0)})
        diff = diff_ledgers(base, new)
        assert diff.exit_code == 0
        assert [row.series for row in diff.improvements] == ["tm.occupancy"]

    def test_within_threshold_is_unchanged(self):
        base = _ledger({"x": (100.0, 100.0)})
        new = _ledger({"x": (104.0, 100.0)})
        diff = diff_ledgers(base, new, threshold=0.05)
        assert diff.counts() == {"unchanged": 1}

    def test_pressure_appearing_from_zero_regresses(self):
        base = _ledger({"x": (0.0, 0.0)})
        new = _ledger({"x": (0.5, 1.0)})
        diff = diff_ledgers(base, new)
        assert diff.has_regression

    def test_added_and_removed_are_structural(self):
        base = _ledger({"x": (1.0, 1.0), "old": (5.0, 5.0)})
        new = _ledger({"x": (1.0, 1.0), "new": (5.0, 5.0)})
        diff = diff_ledgers(base, new)
        verdicts = {row.series: row.verdict for row in diff.rows}
        assert verdicts == {"x": "unchanged", "old": "removed",
                            "new": "added"}
        assert diff.exit_code == 0

    def test_attribution_latency_joins_the_verdict_table(self):
        attribution = {"packets": 10, "mean_latency_ns": 100.0}
        worse = {"packets": 10, "mean_latency_ns": 150.0}
        base = _ledger({"x": (1.0, 1.0)}, attribution=attribution)
        new = _ledger({"x": (1.0, 1.0)}, attribution=worse)
        diff = diff_ledgers(base, new)
        (row,) = diff.regressions
        assert row.series == "attribution.mean_latency_ns"

    def test_mismatched_sections_noted(self):
        base = _ledger({"x": (1.0, 1.0)}, label="adcp")
        new = _ledger({"x": (1.0, 1.0)}, label="rmt")
        diff = diff_ledgers(base, new)
        assert not diff.rows
        assert any("adcp" in note for note in diff.notes)
        assert any("rmt" in note for note in diff.notes)

    def test_negative_threshold_rejected(self):
        ledger = _ledger({"x": (1.0, 1.0)})
        with pytest.raises(ConfigError):
            diff_ledgers(ledger, ledger, threshold=-0.1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        """NaN and inf pass a ``< 0`` test and would call a tripled
        series unchanged."""
        base = _ledger({"x": (10.0, 10.0)})
        new = _ledger({"x": (30.0, 30.0)})
        with pytest.raises(ConfigError, match="finite"):
            diff_ledgers(base, new, threshold=threshold)

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD == 0.05


class TestDirections:
    """Per-metric direction metadata: throughput-like series improve when
    they rise; everything else keeps the lower-is-better default."""

    def test_default_direction_is_lower(self):
        base = _ledger({"tm.occupancy": (10.0, 10.0)})
        new = _ledger({"tm.occupancy": (12.0, 12.0)})
        diff = diff_ledgers(base, new)
        (row,) = diff.regressions
        assert row.direction == "lower"

    def test_throughput_increase_improves(self):
        base = _ledger({"throughput_pps": (10.0, 10.0)})
        new = _ledger({"throughput_pps": (20.0, 20.0)})
        diff = diff_ledgers(base, new)
        assert diff.exit_code == 0
        (row,) = diff.improvements
        assert row.direction == "higher"

    def test_compliance_decrease_regresses(self):
        base = _ledger({"slo.compliance": (1.0, 1.0)})
        new = _ledger({"slo.compliance": (0.5, 0.5)})
        diff = diff_ledgers(base, new)
        assert diff.has_regression
        (row,) = diff.regressions
        assert row.series == "slo.compliance"
        assert row.direction == "higher"

    def test_higher_series_appearing_from_zero_improves(self):
        base = _ledger({"delivered": (0.0, 0.0)})
        new = _ledger({"delivered": (5.0, 5.0)})
        diff = diff_ledgers(base, new)
        assert not diff.has_regression
        assert [row.series for row in diff.improvements] == ["delivered"]

    def test_series_direction_helper(self):
        assert series_direction("throughput_pps") == "higher"
        assert series_direction("slo.compliance") == "higher"
        assert series_direction("tm.occupancy") == "lower"
        # Exact names only: a name that merely contains one is lower.
        assert series_direction("a.throughput_pps") == "lower"

    def test_direction_in_json_rows(self):
        base = _ledger({"throughput_pps": (10.0, 10.0)})
        diff = diff_ledgers(base, base)
        payload = diff.to_json()
        (row,) = payload["rows"]
        assert row["direction"] == "higher"


class TestCLI:
    def test_monitor_writes_valid_ledger(self, tmp_path, capsys):
        target = tmp_path / "ledger.json"
        assert main(["monitor", "recirculate", "--ledger",
                     str(target)]) == 0
        ledger = load_ledger(target)
        assert ledger["workload"] == "recirculate"
        (section,) = ledger["sections"]
        assert section["series"]
        assert section["samples"] > 0
        out = capsys.readouterr().out
        assert "monitor workload" in out

    def test_monitor_json_mode(self, tmp_path, capsys):
        target = tmp_path / "ledger.json"
        assert main(["--json", "monitor", "recirculate", "--ledger",
                     str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["schema"] == LEDGER_SCHEMA

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ledger.json"
        run_monitor("recirculate", ledger_out=target)
        assert main(["diff", str(target), str(target)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out
        assert "unchanged" in out

    def test_diff_exits_one_on_regression(self, tmp_path, capsys):
        base = write_ledger(tmp_path / "base.json",
                            _ledger({"x": (10.0, 10.0)}))
        new = write_ledger(tmp_path / "new.json",
                           _ledger({"x": (20.0, 20.0)}))
        assert main(["diff", str(base), str(new)]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_diff_threshold_flag_is_percent(self, tmp_path, capsys):
        base = write_ledger(tmp_path / "base.json",
                            _ledger({"x": (10.0, 10.0)}))
        new = write_ledger(tmp_path / "new.json",
                           _ledger({"x": (12.0, 12.0)}))
        assert main(["diff", str(base), str(new)]) == 1
        capsys.readouterr()
        assert main(["diff", str(base), str(new),
                     "--threshold", "25"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1e400"])
    def test_diff_rejects_non_finite_threshold(
        self, tmp_path, capsys, threshold
    ):
        """A NaN threshold used to call a tripled series unchanged."""
        base = write_ledger(tmp_path / "base.json",
                            _ledger({"x": (10.0, 10.0)}))
        new = write_ledger(tmp_path / "new.json",
                           _ledger({"x": (30.0, 30.0)}))
        assert main(["diff", str(base), str(new),
                     "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must be >= 0 and finite" in captured.err

    def test_diff_json_mode(self, tmp_path, capsys):
        base = write_ledger(tmp_path / "l.json", _ledger({"x": (1.0, 1.0)}))
        assert main(["--json", "diff", str(base), str(base)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["has_regression"] is False

    def test_diff_wants_two_paths(self, tmp_path, capsys):
        base = write_ledger(tmp_path / "l.json", _ledger({"x": (1.0, 1.0)}))
        assert main(["diff", str(base)]) == 2
        assert "two ledger paths" in capsys.readouterr().err

    def test_monitor_bad_interval(self, capsys):
        assert main(["monitor", "recirculate", "--interval", "soon"]) == 2
        assert "--interval" in capsys.readouterr().err

    def test_unknown_monitor_workload(self, capsys):
        assert main(["monitor", "bogus"]) == 2
        assert "unknown monitor workload" in capsys.readouterr().err

    def test_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("trace", "profile", "monitor", "diff"):
            assert f"python -m repro {name} " in out

    def test_unknown_subcommand_hints_registry(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact" in err
        assert (
            "subcommands: trace, profile, monitor, fabric, serve, spans, "
            "stateful, diff"
            in err
        )


class TestBaselineByteIdentity:
    """Regenerate the committed baseline ledgers and require byte-identity.

    These are the end-to-end anchors for performance and refactoring
    work: every file in ``baselines/`` is regenerated here (the two
    stateful ledgers by :class:`TestStatefulLedgerFamily`), and a change
    that moves code must leave every observable number untouched.  The
    only permitted difference is ``git_sha`` (stamped at build time),
    which is pinned to the baseline's value before the byte comparison.
    """

    BASELINES = Path(__file__).resolve().parents[2] / "baselines"

    def _assert_byte_identical(self, tmp_path, baseline_name, ledger):
        baseline_path = self.BASELINES / baseline_name
        baseline = load_ledger(baseline_path)
        regen = dict(ledger)
        assert "git_sha" in regen
        regen["git_sha"] = baseline["git_sha"]
        rewritten = write_ledger(tmp_path / baseline_name, regen)
        assert rewritten.read_bytes() == baseline_path.read_bytes(), (
            f"{baseline_name} drifted from the committed baseline; if the "
            "change is intentional, regenerate the baseline and say why"
        )

    def test_mltrain_ledger_matches_baseline(self, tmp_path):
        result = run_monitor(
            "mltrain", ledger_out=tmp_path / "ledger_mltrain.json"
        )
        assert result.ledger_path is not None
        self._assert_byte_identical(
            tmp_path,
            "ledger_mltrain.json",
            load_ledger(result.ledger_path),
        )

    def test_fabric_leafspine_ledger_matches_baseline(self, tmp_path):
        from repro.fabric import run_fabric

        run = run_fabric("leaf-spine-2x2", "fabric-allreduce")
        self._assert_byte_identical(
            tmp_path, "ledger_fabric_leafspine.json", run.ledger()
        )

    def test_span_leafspine_ledger_matches_baseline(self, tmp_path):
        from repro.telemetry.runner import run_spans

        run = run_spans("leaf-spine-2x2", "fabric-allreduce", sample=8)
        self._assert_byte_identical(
            tmp_path, "span_ledger_leafspine.json", run.ledger
        )

    def test_serve_leafspine_ledger_matches_baseline(self, tmp_path):
        """The CI serve smoke: 10 us, 500 ns windows, one drop-rate SLO."""
        from repro.serve import run_serve

        run = run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            duration_ns=10_000.0,
            window_ns=500.0,
            slos=["drop_rate<=0.05"],
        )
        self._assert_byte_identical(
            tmp_path, "ledger_serve_leafspine.json", run.ledger()
        )

    def test_campaign_design_space_report_matches_baseline(self, tmp_path):
        """The CI campaign smoke: design-space at one port speed."""
        from repro.campaign import resolve_spec, run_campaign

        spec = resolve_spec("design-space").restrict_axes(
            {"port_speed_gbps": [100]}
        )
        run = run_campaign(
            spec,
            out_dir=tmp_path / "campaign",
            cache_dir=tmp_path / "cache",
        )
        assert run.report is not None
        self._assert_byte_identical(
            tmp_path, "campaign_design_space.json", run.report
        )

    #: The CI smoke invocation behind each baseline, and the file it
    #: writes (``{tmp}`` is the test's directory).
    CLI_ROUTES = {
        "ledger_mltrain.json": (
            "out.json", ["monitor", "mltrain", "--ledger", "{tmp}/out.json"]
        ),
        "ledger_fabric_leafspine.json": (
            "out.json",
            ["fabric", "leaf-spine-2x2", "fabric-allreduce",
             "--target", "adcp", "--ledger", "{tmp}/out.json"],
        ),
        "span_ledger_leafspine.json": (
            "out.json",
            ["spans", "leaf-spine-2x2", "fabric-allreduce",
             "--sample", "8", "--ledger", "{tmp}/out.json"],
        ),
        "ledger_serve_leafspine.json": (
            "out.json",
            ["serve", "leaf-spine-2x2", "fabric-allreduce",
             "--duration", "10us", "--window", "500ns",
             "--slo", "drop_rate<=0.05", "--ledger", "{tmp}/out.json"],
        ),
        "campaign_design_space.json": (
            "campaign/report.json",
            ["campaign", "design-space", "--axis", "port_speed_gbps=100",
             "--out", "{tmp}/campaign", "--cache-dir", "{tmp}/cache"],
        ),
        "stateful_ledger_tokenbucket.json": (
            "out.json",
            ["stateful", "tokenbucket", "--ledger", "{tmp}/out.json"],
        ),
        "stateful_ledger_synflood.json": (
            "out.json", ["stateful", "synflood", "--ledger", "{tmp}/out.json"]
        ),
    }

    @pytest.mark.parametrize("baseline_name", sorted(CLI_ROUTES))
    def test_cli_route_matches_baseline(self, tmp_path, capsys, baseline_name):
        """The same baselines through ``main()``: the CLI hands each
        runner the values that the direct calls pass, and the ledger it
        writes diffs against itself through the one loader."""
        written, argv = self.CLI_ROUTES[baseline_name]
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["--json", *argv]) == 0
        capsys.readouterr()
        self._assert_byte_identical(
            tmp_path, baseline_name, load_ledger(tmp_path / written)
        )
        out = str(tmp_path / written)
        assert main(["--json", "diff", out, out]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows and {row["verdict"] for row in rows} == {"unchanged"}


class TestStatefulLedgerFamily:
    """Stateful ledgers load and diff like every other run ledger."""

    def test_load_ledger_accepts_stateful_schema(self, tmp_path):
        from repro.stateful.runner import run_stateful

        path = tmp_path / "stateful.json"
        run_stateful(
            "synflood", target="adcp", flows=32, packets=120,
            ledger_out=path,
        )
        document = load_ledger(path)
        assert document["schema"] == LEDGER_SCHEMA

    def test_quality_metrics_direction_markers(self):
        for name in ("hit_rate", "detection_rate", "goodput_pps"):
            assert series_direction(name) == "higher"
        # Costs keep the default: lower is better.
        assert series_direction("stale_reads") == "lower"
        assert series_direction("false_positive_rate") == "lower"

    def test_detection_drop_regresses_in_diff(self):
        base = _ledger({"detection_rate": (1.0, 1.0)})
        new = _ledger({"detection_rate": (0.5, 0.5)})
        diff = diff_ledgers(base, new)
        assert diff.has_regression
        (row,) = diff.regressions
        assert row.series == "detection_rate"
        assert row.direction == "higher"

    def test_hit_rate_increase_improves(self):
        base = _ledger({"hit_rate": (0.4, 0.4)})
        new = _ledger({"hit_rate": (0.8, 0.8)})
        diff = diff_ledgers(base, new)
        assert not diff.has_regression
        assert [row.series for row in diff.improvements] == ["hit_rate"]

    def test_stateful_baseline_tokenbucket(self, tmp_path):
        from repro.stateful.runner import run_stateful

        run = run_stateful("tokenbucket")
        TestBaselineByteIdentity()._assert_byte_identical(
            tmp_path, "stateful_ledger_tokenbucket.json", run.ledger()
        )

    def test_stateful_baseline_synflood(self, tmp_path):
        from repro.stateful.runner import run_stateful

        run = run_stateful("synflood")
        TestBaselineByteIdentity()._assert_byte_identical(
            tmp_path, "stateful_ledger_synflood.json", run.ledger()
        )
