"""Self-tests of the perf benchmark at tiny workload sizes.

    PYTHONPATH=src python3 -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import layers
import run
import worker
import workloads
from repro.rmt.pipeline import Pipeline
from repro.sim.event import Simulator


def _tiny(name: str, trace: bool) -> dict:
    return worker.run_once(name, 0, trace, workloads.TINY[name])


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def runs(request):
    name = request.param
    return name, _tiny(name, False), _tiny(name, True), _tiny(name, True)


def test_traced_run_reproduces_untraced_outputs(runs):
    name, untraced, traced, _ = runs
    assert untraced["ok"], untraced["error"]
    assert traced["ok"], traced["error"]
    assert traced["sim_digest"] == untraced["sim_digest"]


def test_layers_account_for_traced_wall(runs):
    _, _, traced, _ = runs
    report, wall = traced["layers"], traced["wall_s"]
    measured = sum(report[f"{layer}.self_s"] for layer in layers.LAYERS)
    measured += report["setup.self_s"] + report["post.self_s"]
    assert not traced["undeclared_layers"]
    assert 0 <= wall - measured <= 0.01 * wall
    assert report["unattributed.self_s"] == pytest.approx(wall - measured)
    assert report["trace_accounted"] == pytest.approx(measured / wall)


def test_call_counts_repeat_exactly(runs):
    # Collector runs depend on the process's heap history, so only a
    # fresh process repeats them; every other count is exact in-process.
    _, _, first, second = runs
    counts = {
        k: v for k, v in first["layers"].items()
        if k.endswith(".calls") and k != "runtime.gc.calls"
    }
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["sim.calls"] > 0 and counts["pipeline.calls"] > 0


def test_forwarding_keeps_hook_elision():
    traced = _tiny("fabric-shuffle", True)
    assert traced["layers"]["apps.calls"] == 0
    assert traced["layers"]["pipeline.hooked_ratio"] == 0
    assert traced["layers"]["fabric.link.calls"] > 0


def test_missing_wrap_target_warns_and_nulls_its_layer(monkeypatch):
    targets = layers.TARGETS + (
        ("tm", "repro.rmt.traffic_manager", "TrafficManager", ("no_such_method",)),
        ("fabric.link", "repro.no_such_module", "Link", ("__call__",)),
    )
    monkeypatch.setattr(layers, "TARGETS", targets)
    service = Pipeline.__dict__["service"]
    run_method = Simulator.__dict__["run"]
    with pytest.warns(layers.LayerTargetMissing) as caught:
        traced = _tiny("switch-rmt", True)
    messages = " ".join(str(w.message) for w in caught)
    assert "'tm'" in messages and "'fabric.link'" in messages
    assert traced["ok"], traced["error"]
    assert traced["sim_digest"] == _tiny("switch-rmt", False)["sim_digest"]
    report = traced["layers"]
    assert report["tm.calls"] is None and report["tm.admit_fail_ratio"] is None
    assert report["fabric.link.self_s"] is None
    assert report["pipeline.calls"] > 0
    # Uninstall restored every wrapped function.
    assert Pipeline.__dict__["service"] is service
    assert Simulator.__dict__["run"] is run_method


def test_workload_registries_agree():
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS) == set(workloads.TINY)


def test_benchmark_json_matches_the_code():
    path = Path(run.ROOT, "BENCHMARK.json")
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside this checkout")
    spec = json.loads(path.read_text())
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in layers.per_layer_metrics()
    ]


def test_missing_source_tree_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "switch-rmt", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


STEADY = [100.0 + i % 3 for i in range(10)]
ALTERNATING = [100.0 + 20 * (i % 2) for i in range(10)]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([v + 10 for v in STEADY], "gain"),
        ([v - 20 for v in STEADY], "regression"),
        ([201 - v for v in STEADY], "within bound"),
        ([220 - v for v in ALTERNATING], "unresolved"),
    ],
)
def test_paired_verdict(change, expected):
    metric = run.Metric("events_per_s", "events/s", "higher", 0.10)
    parent = ALTERNATING if expected == "unresolved" else STEADY
    assert compare.verdict(parent, change, metric)["verdict"] == expected


def test_paired_verdict_refuses_gain_with_more_failures():
    metric = run.Metric("wall_s", "s", "lower", 0.10)
    parent = [2.0 + 0.01 * i for i in range(10)]
    change = [1.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, change, metric)["verdict"] == "gain"
    assert compare.verdict(parent, change, metric, 0, 1)["verdict"] == "more failures"


def test_compare_alternates_sides_and_flags_output_changes(monkeypatch, capsys):
    calls = []

    def fake_measure(name, *, seed, seconds, src, trace):
        side = src.parent.name
        calls.append(side)
        faster = 1.5 if side == "change" else 1.0
        return {
            "failed": 0,
            "sim_digest": side,
            "end_to_end": {
                "events_per_s": 1000.0 * faster + len(calls),
                "wall_s": 2.0 / faster,
                "setup_s": 0.5,
                "peak_rss_mb": 100.0,
            },
        }

    monkeypatch.setattr(run, "measure", fake_measure)
    sides = {"parent": Path("parent/src"), "change": Path("change/src")}
    runs = compare.collect(sides, ["switch-rmt"], 10, 1, 1.0)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    rows = compare.rows_for("switch-rmt", runs["parent"]["switch-rmt"],
                            runs["change"]["switch-rmt"])
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["events_per_s"] == "gain"
    assert verdicts["wall_s"] == "gain"
    assert verdicts["peak_rss_mb"] == "within bound"
    assert not rows[0]["same_sim_outputs"]
