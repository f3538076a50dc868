"""End-to-end serve runs: determinism, verdicts, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.serve.replay import MAX_WINDOWS
from repro.serve.runner import run_serve
from repro.telemetry.ledger import (
    LEDGER_SCHEMA,
    load_ledger,
    series_direction,
)

_FAST = dict(duration_ns=4_000.0, window_ns=500.0, rate=0.8)


def _ledger_bytes(**overrides):
    kwargs = dict(_FAST)
    kwargs.update(overrides)
    run = run_serve(
        kwargs.pop("topology", "leaf-spine-2x2"),
        kwargs.pop("workload", "fabric-allreduce"),
        **kwargs,
    )
    ledger = run.ledger()
    ledger["git_sha"] = None  # stamped at build time, not run content
    return json.dumps(ledger, sort_keys=True)


class TestDeterminism:
    def test_ledger_identical_across_repeats(self):
        assert _ledger_bytes(seed=2) == _ledger_bytes(seed=2)

    def test_rmt_ledger_identical_across_repeats(self):
        assert _ledger_bytes(target="rmt") == _ledger_bytes(target="rmt")

    def test_seeds_produce_different_ledgers(self):
        assert _ledger_bytes(seed=0) != _ledger_bytes(seed=1)


class TestRunShape:
    @pytest.fixture(scope="class")
    def run(self):
        return run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            duration_ns=8_000.0,
            window_ns=500.0,
            rate=0.8,
            slos=["drop_rate<=0.5"],
        )

    def test_windows_cover_the_horizon(self, run):
        assert len(run.windows) >= 16  # at least duration/window
        assert [w["window"] for w in run.windows] == list(
            range(len(run.windows))
        )

    def test_every_window_carries_an_slo_verdict(self, run):
        for window in run.windows:
            assert set(window["slo"]) == {"compliant", "violations"}

    def test_switch_gauges_present(self, run):
        for window in run.windows:
            assert "tm_occupancy" in window
            assert "recirc_backlog_s" in window
            assert "recirculations" in window

    def test_latency_and_cct_observed(self, run):
        assert any(w["latency_samples"] > 0 for w in run.windows)
        assert run.coflows_completed > 0
        assert any(w["p99_latency_ns"] for w in run.windows)

    def test_totals_account_for_offered_load(self, run):
        totals = run.totals()
        assert totals["injected"] == sum(
            w["offered"] for w in run.windows
        )
        assert totals["delivered_to_hosts"] == sum(
            w["delivered"] for w in run.windows
        )
        assert 0 < totals["delivered_to_hosts"] <= totals["injected"]

    def test_ledger_schema_and_sections(self, run):
        ledger = run.ledger()
        assert ledger["schema"] == LEDGER_SCHEMA
        assert ledger["config"]["window_ns"] == run.window_ns
        labels = [s["label"] for s in ledger["sections"]]
        assert labels[0] == "serve"
        assert set(run.topology.switch_names) <= set(labels)
        serve = ledger["sections"][0]["series"]
        assert not any("direction" in summary for summary in serve.values())
        assert series_direction("throughput_pps") == "higher"
        assert series_direction("slo.compliance") == "higher"
        assert series_direction("tm_occupancy") == "lower"

    def test_exit_code_zero_when_compliant(self, run):
        assert run.slo["verdict"] == "pass"
        assert run.exit_code == 0


class TestVerdictsAndErrors:
    def test_exit_code_one_on_violation(self):
        run = run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            slos=["delivered>=1e9"],
            **_FAST,
        )
        assert run.slo["verdict"] == "fail"
        assert run.exit_code == 1

    def test_single_switch_topology_serves(self):
        run = run_serve("single-8", "fabric-allreduce", **_FAST)
        assert run.delivered_to_hosts > 0
        assert run.exit_code == 0

    def test_duration_must_cover_one_window(self):
        with pytest.raises(ConfigError, match="window"):
            run_serve(
                "leaf-spine-2x2",
                "fabric-allreduce",
                duration_ns=100.0,
                window_ns=500.0,
            )

    @pytest.mark.parametrize(
        "duration_ns,window_ns",
        [
            (1_000.0, 0.001),  # 10**6 windows
            ((MAX_WINDOWS + 1) * 500.0, 500.0),
            (float("inf"), 500.0),
            (float("nan"), 500.0),
            (4_000.0, float("nan")),
        ],
    )
    def test_window_count_is_capped(self, duration_ns, window_ns):
        with pytest.raises(ConfigError, match="window"):
            run_serve(
                "leaf-spine-2x2",
                "fabric-allreduce",
                duration_ns=duration_ns,
                window_ns=window_ns,
            )

    def test_unknown_slo_metric_fails_fast(self):
        with pytest.raises(ConfigError, match="bogus"):
            run_serve(
                "leaf-spine-2x2",
                "fabric-allreduce",
                slos=["bogus<=1"],
                **_FAST,
            )

    def test_on_window_streams_live(self):
        streamed = []
        run = run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            on_window=streamed.append,
            **_FAST,
        )
        assert streamed == run.windows


class TestServeCLI:
    ARGS = [
        "serve",
        "leaf-spine-2x2",
        "fabric-allreduce",
        "--duration",
        "6us",
        "--window",
        "500ns",
    ]

    def test_json_streams_windows_then_summary(self, capsys):
        assert main(["--json", *self.ARGS]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        windows = [r for r in records if r["type"] == "window"]
        assert len(windows) >= 10
        assert records[-1]["type"] == "summary"
        assert windows[0]["end_ns"] == 500.0

    def test_text_mode_prints_window_lines(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "window   0" in out
        assert "serve leaf-spine-2x2 [adcp]" in out

    def test_slo_violation_exits_one(self, capsys):
        assert main([*self.ARGS, "--slo", "delivered>=1e9"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_ledger_and_stream_artifacts(self, tmp_path, capsys):
        ledger_path = tmp_path / "serve.json"
        stream_path = tmp_path / "serve.jsonl"
        assert (
            main(
                [
                    *self.ARGS,
                    "--ledger",
                    str(ledger_path),
                    "--stream",
                    str(stream_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        ledger = load_ledger(ledger_path)
        assert ledger["schema"] == LEDGER_SCHEMA
        streamed = [
            json.loads(line)
            for line in stream_path.read_text().splitlines()
        ]
        assert len(streamed) == len(ledger["windows"])

    def test_self_diff_of_serve_ledger_passes(self, tmp_path, capsys):
        ledger_path = tmp_path / "serve.json"
        assert main([*self.ARGS, "--ledger", str(ledger_path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(ledger_path), str(ledger_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["serve"], "serve takes a topology"),
            (["serve", "nowhere", "fabric-allreduce"], "topology"),
            (["serve", "leaf-spine-2x2", "bogus"], "workload"),
            (["serve", "leaf-spine-2x2", "fabric-allreduce",
              "--duration", "soon"], "duration"),
            (["serve", "leaf-spine-2x2", "fabric-allreduce",
              "--slo", "p99"], "SLO"),
            (["serve", "leaf-spine-2x2", "fabric-allreduce",
              "--burst", "2.0"], "burst"),
            (["serve", "leaf-spine-2x2", "fabric-allreduce",
              "--rate", "-1"], "rate"),
        ],
    )
    def test_usage_errors_exit_two(self, argv, fragment, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in err

    @pytest.mark.parametrize(
        "flags,fragment",
        [
            (["--duration", "nan"], "duration must be finite"),
            (["--duration", "1e400s"], "duration must be finite"),
            (["--rate", "inf"], "rate must be positive and finite"),
            (["--rate", "nan"], "rate must be positive and finite"),
            (["--burst", "nan@1us:2us"], "burst factor must be positive"),
            (["--window", "0.001ns", "--duration", "1us"],
             f"more than {MAX_WINDOWS} windows"),
            (["--interval", "nan"], "interval must be positive and finite"),
            (["--interval", "inf"], "interval must be positive and finite"),
        ],
    )
    def test_non_finite_and_runaway_inputs_exit_two(
        self, flags, fragment, capsys
    ):
        """Rejected at parse time with one line, not after building
        thousands of workload rounds or millions of windows."""
        argv = ["serve", "leaf-spine-2x2", "fabric-allreduce", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert fragment in captured.err
