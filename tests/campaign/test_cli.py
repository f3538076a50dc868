"""``python -m repro campaign`` exit codes, options, and output."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def _campaign(tmp_path, *extra: str) -> list[str]:
    spec = tmp_path / "mini.json"
    spec.write_text(
        json.dumps(
            {
                "name": "mini",
                "target": "_echo",
                "mode": "grid",
                "axes": {"value": [1, 2]},
                "seed": 3,
            }
        )
    )
    return [
        "campaign",
        str(spec),
        "--out",
        str(tmp_path / "out"),
        "--cache-dir",
        str(tmp_path / "cache"),
        *extra,
    ]


def test_campaign_spec_file_runs_to_exit_zero(tmp_path, capsys):
    assert main(_campaign(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "campaign 'mini'" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "journal.jsonl").exists()


def test_campaign_json_summary(tmp_path, capsys):
    assert main(_campaign(tmp_path, "--json")) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["campaign"] == "mini"
    assert summary["cells"] == 2
    assert summary["exit_code"] == 0
    assert summary["failed"] == []
    assert summary["report"]["workload"] == "campaign:mini"


def test_campaign_axis_override_restricts_the_grid(tmp_path, capsys):
    assert main(_campaign(tmp_path, "--json", "--axis", "value=2")) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 1


def test_cell_failure_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "name": "bad",
                "target": "_flaky",
                "mode": "list",
                "cells": [
                    {
                        "mode": "fail-once",
                        "sentinel": str(tmp_path / "sentinel"),
                    }
                ],
            }
        )
    )
    code = main(
        [
            "campaign",
            str(spec),
            "--out",
            str(tmp_path / "out"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 1
    assert "failed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign"],  # no spec
        ["campaign", "no-such-campaign"],  # unknown builtin
        ["campaign", "design-space", "--workers", "zero"],  # bad int
        ["campaign", "design-space", "--workers", "0"],  # below minimum
        ["campaign", "design-space", "--axis", "nope"],  # malformed axis
        ["campaign", "design-space", "--axis", "missing=1"],  # unknown axis
        ["campaign", "design-space", "--frobnicate"],  # unknown option
        ["campaign", "design-space", "--timeout", "nan"],  # not finite
        ["campaign", "design-space", "--timeout", "inf"],
        ["campaign", "design-space", "--retries", "-1"],  # below minimum
        ["campaign", "stateful-sweep", "--axis", "skew=nan"],  # not finite
        ["campaign", "stateful-sweep", "--axis", "skew=inf"],
    ],
)
def test_bad_invocations_exit_two(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a case that slipped through would write here
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_builtin_error_lists_the_builtins(capsys):
    assert main(["campaign", "no-such-campaign"]) == 2
    err = capsys.readouterr().err
    assert "design-space" in err and "coflow-mix" in err


def test_help_documents_campaign_and_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "campaign <spec.toml|spec.json|builtin>" in out
    assert "exit codes: 0 ok, 1 cell failure/interrupt, 2 bad spec" in out
