"""The ``repro stateful`` subcommand: options, artifacts, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.telemetry.ledger import STATEFUL_LEDGER_SCHEMA, load_ledger

_FAST = ["--flows", "32", "--packets", "120"]


class TestStatefulCLI:
    def test_runs_and_prints_lines(self, capsys):
        assert main(["stateful", "synflood", "--seed", "0"] + _FAST) == 0
        out = capsys.readouterr().out
        assert "adcp:synflood" in out
        assert "rmt:synflood" in out
        assert "detection=" in out

    def test_single_target(self, capsys):
        assert (
            main(["stateful", "tokenbucket", "--target", "rmt",
                  "--seed", "0"] + _FAST)
            == 0
        )
        out = capsys.readouterr().out
        assert "rmt:tokenbucket" in out
        assert "adcp:" not in out

    def test_json_mode_summary(self, capsys):
        assert (
            main(["--json", "stateful", "keycache", "--seed", "2"] + _FAST)
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["workload"] == "keycache"
        assert summary["seed"] == 2
        assert "compile" in summary["sections"]
        assert "hit_rate" in summary["sections"]["adcp:keycache"]

    def test_ledger_written(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        assert (
            main(["stateful", "heavyhitter", "--target", "adcp",
                  "--seed", "1", "--ledger", str(out)] + _FAST)
            == 0
        )
        capsys.readouterr()
        document = load_ledger(out)
        assert document["schema"] == STATEFUL_LEDGER_SCHEMA
        assert document["workload"] == "heavyhitter"

    def test_diffable_with_repro_diff(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert (
                main(["stateful", "tokenbucket", "--target", "adcp",
                      "--seed", "5", "--ledger", str(path)] + _FAST)
                == 0
            )
        assert main(["diff", str(a), str(b)]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_unknown_workload_exits_two(self, capsys):
        assert main(["stateful", "frobnicate"]) == 2
        assert "unknown stateful workload" in capsys.readouterr().err

    def test_bad_option_value_exits_two(self, capsys):
        assert main(["stateful", "synflood", "--flows", "many"]) == 2
        assert "--flows" in capsys.readouterr().err

    @pytest.mark.parametrize("skew", ["nan", "inf", "1"])
    def test_bad_skew_exits_two(self, skew, capsys):
        """NaN used to fail inside numpy with exit 1, and inf to run and
        print ``"skew": Infinity``."""
        assert main(["--json", "stateful", "synflood", "--skew", skew]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "zipf skew must be > 1.0 and finite" in captured.err

    @pytest.mark.parametrize("skew", ["3.0", "1.05", "nan"])
    def test_fabric_topology_refuses_skew(self, skew, capsys):
        """A fabric run draws with a fixed zipf exponent; ``--skew`` used
        to be ignored there yet recorded in the run's params."""
        argv = ["--json", "stateful", "synflood",
                "--topology", "leaf-spine-2x2", "--skew", skew]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "skew applies to topology 'single' only" in captured.err

    def test_missing_workload_exits_two(self, capsys):
        assert main(["stateful"]) == 2
        assert "exactly one workload" in capsys.readouterr().err

    def test_usage_mentions_stateful(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "stateful <workload>" in out
        assert "tokenbucket" in out
