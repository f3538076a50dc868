"""End-to-end stateful runs: both targets, both scopes, stable ledgers.

The determinism contract mirrors the fabric/serve ledgers: one seed →
one byte-identical ``repro.stateful_ledger/1`` artifact (modulo
``git_sha``), whatever the queue backend; a different seed moves the
draws.  The compile section must carry the §3.2 divergence on every
run.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigError
from repro.stateful.runner import run_stateful
from repro.stateful.workloads import (
    DEFAULT_SKEW,
    FABRIC_SKEW,
    STATEFUL_WORKLOADS,
    build_single,
)

_FAST = dict(flows=32, packets=160)


def _canonical(run) -> str:
    ledger = run.ledger()
    ledger["git_sha"] = "pinned"
    return json.dumps(ledger, sort_keys=True)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown stateful workload"):
            run_stateful("frobnicate")

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            run_stateful("tokenbucket", target="fpga")

    @pytest.mark.parametrize("skew", [1.0, math.nan, math.inf])
    def test_skew_must_exceed_one_and_be_finite(self, skew):
        with pytest.raises(ConfigError, match="zipf skew"):
            build_single("tokenbucket", skew=skew, port_speed_bps=1e11)


class TestSingleSwitchEndToEnd:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_runs_on_both_targets(self, workload):
        run = run_stateful(workload, **_FAST)
        labels = [s.label for s in run.sections]
        assert labels == [
            f"adcp:{workload}", f"rmt:{workload}", "compile",
        ]
        for section in run.sections[:2]:
            assert section.series["delivered"]["mean"] > 0
            assert section.series["state_accesses"]["mean"] > 0

    def test_tokenbucket_rate_limits_hot_flows(self):
        run = run_stateful("tokenbucket", **_FAST)
        for section in run.sections[:2]:
            assert section.series["rate_limited"]["mean"] > 0
            assert section.series["goodput_pps"]["mean"] > 0
            assert section.series["goodput_pps"]["direction"] == "higher"

    def test_synflood_detects_attackers_cleanly(self):
        run = run_stateful("synflood", **_FAST)
        for section in run.sections[:2]:
            assert section.series["detection_rate"]["mean"] == 1.0
            assert section.series["false_positive_rate"]["mean"] == 0.0
            assert section.series["efsm.IDLE--syn->PENDING"]["mean"] > 0

    def test_heavyhitter_promotes_without_false_positives(self):
        run = run_stateful("heavyhitter", **_FAST)
        for section in run.sections[:2]:
            assert section.series["promotions"]["mean"] > 0
            assert section.series["detection_rate"]["mean"] > 0
            assert section.series["false_positive_rate"]["mean"] == 0.0

    def test_keycache_hits_and_merges(self):
        run = run_stateful("keycache", **_FAST)
        for section in run.sections[:2]:
            assert section.series["hit_rate"]["mean"] > 0
            assert section.series["hit_rate"]["direction"] == "higher"
            assert section.series["puts"]["mean"] > 0


class TestFabricEndToEnd:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_leaf_spine_both_targets(self, workload):
        run = run_stateful(
            workload, topology="leaf-spine-2x2", packets=128
        )
        assert [s.label for s in run.sections] == [
            f"adcp:{workload}@leaf-spine-2x2",
            f"rmt:{workload}@leaf-spine-2x2",
            "compile",
        ]
        for section in run.sections[:2]:
            assert section.series["delivered"]["mean"] > 0
            assert section.counters["switches"] >= 4

    def test_run_records_the_skew_it_draws_with(self):
        """A fabric workload draws with a fixed exponent: its run records
        that one and refuses another, where it used to record a skew it
        never used."""
        fabric = run_stateful(
            "heavyhitter", topology="leaf-spine-2x2", target="adcp",
            packets=64,
        )
        assert fabric.ledger()["params"]["skew"] == FABRIC_SKEW
        no_keys = run_stateful(
            "synflood", topology="leaf-spine-2x2", target="adcp",
            packets=64,
        )
        assert no_keys.ledger()["params"]["skew"] is None
        single = run_stateful("synflood", target="adcp", **_FAST)
        assert single.ledger()["params"]["skew"] == DEFAULT_SKEW
        for skew in (3.0, 1.05, math.nan):
            with pytest.raises(ConfigError, match="topology 'single' only"):
                run_stateful(
                    "heavyhitter", topology="leaf-spine-2x2", skew=skew
                )

    def test_campaign_cell_forwards_only_a_set_skew(self):
        from repro.campaign.cells import run_cell

        cell = {
            "workload": "heavyhitter", "topology": "leaf-spine-2x2",
            "target": "adcp", "packets": 64, "seed": 1,
        }
        assert run_cell("stateful", cell)["params"]["skew"] == FABRIC_SKEW
        with pytest.raises(ConfigError, match="topology 'single' only"):
            run_cell("stateful", {**cell, "skew": 1.5})

    def test_fabric_keycache_sees_cross_replica_staleness(self):
        run = run_stateful(
            "keycache", topology="leaf-spine-2x2", packets=256
        )
        for section in run.sections[:2]:
            assert section.series["merge_messages"]["mean"] > 0


class TestCompileDivergence:
    """Every ledger quantifies §3.2: RMT replicates per key, ADCP not."""

    def test_rmt_replication_grows_adcp_flat(self):
        run = run_stateful("synflood", **_FAST)
        compile_section = run.sections[-1]
        series = compile_section.series
        assert series["rmt.replication_factor.k1"]["mean"] == 1
        assert series["rmt.replication_factor.k16"]["mean"] == 16
        assert series["adcp.replication_factor.k16"]["mean"] == 1
        assert (
            series["rmt.sram_blocks.k16"]["mean"]
            > series["rmt.sram_blocks.k1"]["mean"]
        )
        assert (
            series["adcp.sram_blocks.k16"]["mean"]
            == series["adcp.sram_blocks.k1"]["mean"]
        )

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_every_workload_carries_the_section(self, workload):
        run = run_stateful(workload, target="adcp", **_FAST)
        assert run.sections[-1].label == "compile"
        assert any(
            name.startswith("rmt.replication_factor")
            for name in run.sections[-1].series
        )


class TestLedgerDeterminism:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_same_seed_byte_identical(self, workload):
        first = _canonical(run_stateful(workload, seed=9, **_FAST))
        second = _canonical(run_stateful(workload, seed=9, **_FAST))
        assert first == second

    def test_different_seed_differs(self):
        base = _canonical(run_stateful("heavyhitter", seed=9, **_FAST))
        other = _canonical(run_stateful("heavyhitter", seed=10, **_FAST))
        assert base != other

    def test_fabric_ledger_deterministic(self):
        kwargs = dict(topology="leaf-spine-2x2", packets=128, seed=4)
        first = _canonical(run_stateful("synflood", **kwargs))
        second = _canonical(run_stateful("synflood", **kwargs))
        assert first == second

    def test_ledger_written_and_loadable(self, tmp_path):
        from repro.telemetry.ledger import STATEFUL_LEDGER_SCHEMA, load_ledger

        out = tmp_path / "stateful.json"
        run = run_stateful(
            "tokenbucket", target="adcp", ledger_out=out, **_FAST
        )
        assert run.ledger_path == out
        loaded = load_ledger(out)
        assert loaded["schema"] == STATEFUL_LEDGER_SCHEMA
        assert loaded["workload"] == "tokenbucket"
        labels = [s["label"] for s in loaded["sections"]]
        assert labels == ["adcp:tokenbucket", "compile"]
