"""End-to-end fabric runs: delivery, placement, determinism, CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.fabric import run_fabric
from repro.fabric.routing import FlowletSelector


class TestEndToEnd:
    @pytest.mark.parametrize("target", ["adcp", "rmt"])
    def test_allreduce_crosses_switches_and_verifies(self, target):
        run = run_fabric("leaf-spine-2x2", "fabric-allreduce", target=target)
        # Workers sit under different leaves, so aggregation traffic
        # must cross at least one switch-to-switch wire.
        assert run.transit_packets > 0
        assert run.injected > 0
        assert run.delivered_to_hosts > 0
        assert len(run.sections) == 4  # 2 leaves + 2 spines
        # run_fabric itself verifies the aggregate values; every coflow
        # must also have a finite completion time.
        assert set(run.cct_s) == {1, 2}
        assert all(cct > 0 for cct in run.cct_s.values())

    @pytest.mark.parametrize("target", ["adcp", "rmt"])
    def test_shuffle_delivers_to_reducers(self, target):
        run = run_fabric("leaf-spine-2x2", "fabric-shuffle", target=target)
        assert run.transit_packets > 0
        # Shuffle has no hosted aggregation: placement is moot.
        assert run.placement == ""
        assert run.placement_map == {}
        assert all(cct > 0 for cct in run.cct_s.values())

    def test_fat_tree_k4_end_to_end(self):
        run = run_fabric("fat-tree-k4", "fabric-allreduce")
        assert len(run.sections) == 20
        assert run.transit_packets > 0
        ledger = run.ledger()
        labels = [s["label"] for s in ledger["sections"]]
        assert "fabric" in labels and "core0-0" in labels
        assert ledger["workload"] == (
            "fabric:fabric-allreduce@fat-tree-k4:adcp"
        )

    def test_rejects_unknown_target_and_topology(self):
        with pytest.raises(ConfigError, match="rmt or adcp"):
            run_fabric("leaf-spine-2x2", target="tofino")
        with pytest.raises(ConfigError, match="unknown topology"):
            run_fabric("ring-9")


class TestPlacement:
    def test_placements_choose_different_switches(self):
        ingress = run_fabric("leaf-spine-2x2", placement="ingress")
        central = run_fabric("leaf-spine-2x2", placement="central")
        assert set(ingress.placement_map.values()) <= {"leaf0", "leaf1"}
        assert set(central.placement_map.values()) <= {"spine0", "spine1"}

    def test_placement_changes_coflow_completion_time(self):
        """The acceptance criterion: state placement is a measurable
        CCT knob at fabric scale."""
        ingress = run_fabric("leaf-spine-2x2", placement="ingress")
        central = run_fabric("leaf-spine-2x2", placement="central")
        assert ingress.max_cct_s != central.max_cct_s


class TestRoutingModes:
    def test_flowlet_run_keeps_intra_flowlet_order(self):
        """Flowlet routing moves flows between paths mid-flow, yet every
        host receives every flow in ``seq`` order."""
        run = run_fabric(
            "fat-tree-k4", "fabric-shuffle", routing="flowlet", coflows=4
        )
        selectors = run.selectors.values()
        assert all(isinstance(s, FlowletSelector) for s in selectors)
        # More flowlets than per-switch flow keys: some flows re-hashed
        # after an idle gap, so they changed path mid-flow.
        flow_keys = sum(len(s._state) for s in selectors)
        assert sum(s.flowlets_started for s in selectors) > flow_keys
        flows: dict[tuple[int, int], list[int]] = {}
        for host in run.hosts.values():
            for _, packet in host.received:
                header = packet.header("coflow")
                flows.setdefault(
                    (header["coflow_id"], header["flow_id"]), []
                ).append(header["seq"])
        assert len(flows) == 256
        for flow, seqs in flows.items():
            assert seqs == sorted(set(seqs)), flow

    def test_ecmp_spreads_uplink_traffic(self):
        run = run_fabric(
            "leaf-spine-4x2", "fabric-shuffle", routing="ecmp", coflows=4
        )
        uplinks = {
            name: link.packets
            for name, link in run.links.items()
            if "->spine" in name and link.packets > 0
        }
        # Multiple flows hash over two spines: both see traffic.
        spines_used = {name.split("->")[1] for name in uplinks}
        assert spines_used == {"spine0", "spine1"}


class TestDeterminism:
    def test_same_seed_same_ledger_bytes(self):
        a = run_fabric("leaf-spine-2x2", seed=5).ledger()
        b = run_fabric("leaf-spine-2x2", seed=5).ledger()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_different_ledger(self):
        a = run_fabric("leaf-spine-2x2", seed=5).ledger()
        b = run_fabric("leaf-spine-2x2", seed=6).ledger()
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


class TestCampaignCell:
    def test_fabric_cell_returns_a_ledger(self):
        from repro.campaign import run_cell

        ledger = run_cell(
            "fabric", {"topology": "leaf-spine-2x2", "seed": 3}
        )
        assert ledger["schema"].startswith("repro.run_ledger")
        fabric = [
            s for s in ledger["sections"] if s["label"] == "fabric"
        ]
        assert len(fabric) == 1
        assert fabric[0]["max_cct_s"] > 0
        assert "cct.max_s" in fabric[0]["series"]

    def test_fabric_cell_rejects_unknown_parameters(self):
        from repro.campaign import run_cell

        with pytest.raises(ConfigError, match="unknown parameters"):
            run_cell("fabric", {"seed": 1, "fanout": 9})


class TestCli:
    def test_fabric_subcommand_json(self, capsys):
        assert main(["fabric", "leaf-spine-2x2", "fabric-allreduce",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["topology"] == "leaf-spine-2x2"
        assert summary["delivered_to_hosts"] > 0
        assert summary["transit_packets"] > 0

    def test_fabric_subcommand_writes_ledger(self, tmp_path, capsys):
        out = tmp_path / "fabric.json"
        assert main(["fabric", "fat-tree-k4", "fabric-allreduce",
                     "--ledger", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["schema"].startswith("repro.run_ledger")
        assert len(document["sections"]) == 21

    def test_fabric_subcommand_rejects_bad_input(self, capsys):
        assert main(["fabric", "ring-4", "fabric-allreduce"]) != 0
        capsys.readouterr()
        assert main(["fabric", "leaf-spine-2x2", "nope"]) != 0
