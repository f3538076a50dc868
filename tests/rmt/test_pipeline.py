"""Tests for the pipeline engine (repro.rmt.pipeline)."""

from __future__ import annotations

import pytest

from repro.arch.decision import Decision, Verdict
from repro.errors import ConfigError, SimulationError
from repro.net.headers import ETHERNET
from repro.net.packet import Packet, consume_packet_id
from repro.net.traffic import make_coflow_packet
from repro.rmt.pipeline import Pipeline
from repro.sim.component import Component


def _pipeline(**kwargs) -> Pipeline:
    defaults = dict(
        index=0,
        region="ingress",
        frequency_hz=1e9,
        parent=Component("test"),
        stages=12,
        attached_ports=(0, 1),
    )
    defaults.update(kwargs)
    return Pipeline(**defaults)  # type: ignore[arg-type]


class TestStructure:
    def test_stage_ladder_built(self):
        pipeline = _pipeline(stages=8)
        assert len(pipeline.stages) == 8
        assert pipeline.stages[3].path.endswith("stage3")

    def test_latency(self):
        pipeline = _pipeline(stages=12, parser_latency_cycles=4)
        assert pipeline.latency_s == pytest.approx(16e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _pipeline(frequency_hz=0)
        with pytest.raises(ConfigError):
            _pipeline(stages=0)
        with pytest.raises(ConfigError):
            _pipeline(array_width=0)


class TestRegisters:
    def test_lazy_creation_and_reuse(self):
        pipeline = _pipeline()
        reg = pipeline.get_register("acc", 128)
        assert pipeline.get_register("acc", 128) is reg

    def test_size_conflict_rejected(self):
        pipeline = _pipeline()
        pipeline.get_register("acc", 128)
        with pytest.raises(ConfigError):
            pipeline.get_register("acc", 256)

    def test_registers_are_pipeline_local(self):
        """The architectural point: two pipelines never share registers."""
        parent = Component("switch")
        a = Pipeline(0, "ingress", 1e9, parent, attached_ports=(0,))
        b = Pipeline(1, "ingress", 1e9, parent, attached_ports=(1,))
        a.get_register("acc", 8).add(0, 5)
        assert b.get_register("acc", 8).read(0) == 0


class TestTables:
    def test_install_and_get(self):
        from repro.tables.mat import MatchKind, MatchTable

        pipeline = _pipeline()
        table = MatchTable("t", MatchKind.EXACT, 32, 16)
        pipeline.install_table(table)
        assert pipeline.get_table("t") is table

    def test_duplicate_install_rejected(self):
        from repro.tables.mat import MatchKind, MatchTable

        pipeline = _pipeline()
        pipeline.install_table(MatchTable("t", MatchKind.EXACT, 32, 16))
        with pytest.raises(ConfigError):
            pipeline.install_table(MatchTable("t", MatchKind.EXACT, 32, 16))

    def test_missing_table_raises(self):
        with pytest.raises(ConfigError):
            _pipeline().get_table("ghost")


class TestServiceTiming:
    def test_one_packet_per_cycle_throughput(self):
        """Back-to-back ready packets are serviced one cycle apart — the
        line-rate discipline of the whole architecture."""
        pipeline = _pipeline(frequency_hz=1e9)
        starts = []
        for _ in range(5):
            packet = make_coflow_packet(1, 0, 0, [(1, 1)])
            record = pipeline.service(packet, 0.0, None)
            starts.append(record.service_start)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g == pytest.approx(1e-9) for g in gaps)

    def test_idle_pipeline_services_immediately(self):
        pipeline = _pipeline()
        record = pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1)]), 5.0, None)
        assert record.service_start == 5.0
        assert record.queueing_delay == 0.0

    def test_exit_time_adds_fill_latency(self):
        pipeline = _pipeline(stages=12, parser_latency_cycles=4)
        record = pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1)]), 0.0, None)
        assert record.exit_time == pytest.approx(16e-9)

    def test_busy_accounting(self):
        pipeline = _pipeline(frequency_hz=1e9)
        for _ in range(3):
            pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1)]), 0.0, None)
        assert pipeline.busy_seconds == pytest.approx(3e-9)
        assert pipeline.utilization(10e-9) == pytest.approx(0.3)

    def test_negative_ready_time_rejected(self):
        with pytest.raises(SimulationError):
            _pipeline().service(make_coflow_packet(1, 0, 0, [(1, 1)]), -1.0, None)


class TestServiceFunction:
    def test_hook_sees_parsed_phv_and_modifies_packet(self):
        pipeline = _pipeline()

        def hook(ctx, packet, phv):
            phv["ipv4.ttl"] = 7
            return Decision.forward()

        packet = make_coflow_packet(1, 0, 0, [(1, 1)])
        record = pipeline.service(packet, 0.0, hook)
        assert record.decision.verdict is Verdict.FORWARD
        assert packet.header("ipv4")["ttl"] == 7

    def test_hook_context_exposes_pipeline_identity(self):
        pipeline = _pipeline(index=3, region="egress", attached_ports=(4, 5))
        seen = {}

        def hook(ctx, packet, phv):
            seen["index"] = ctx.pipeline_index
            seen["region"] = ctx.region
            seen["ports"] = ctx.attached_ports
            seen["width"] = ctx.array_width
            return Decision.forward()

        pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1)]), 0.0, hook)
        assert seen == {
            "index": 3, "region": "egress", "ports": (4, 5), "width": 1
        }

    def test_drop_meta_from_hook_overrides_decision(self):
        pipeline = _pipeline()

        def hook(ctx, packet, phv):
            phv.set_meta("drop", 1)
            phv.set_meta("drop_reason", "acl")
            return Decision.forward()

        record = pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1)]), 0.0, hook)
        assert record.decision.verdict is Verdict.DROP
        assert record.decision.drop_reason == "acl"

    def test_width_enforcement_for_stateful_hooks(self):
        """A multi-element packet must not reach a stateful hook on a
        scalar pipeline (section 2 issue 2)."""
        pipeline = _pipeline(array_width=1)
        packet = make_coflow_packet(1, 0, 0, [(1, 1), (2, 2)])
        with pytest.raises(SimulationError):
            pipeline.service(
                packet, 0.0, lambda c, p, v: Decision.forward(), enforce_width=True
            )

    def test_wide_packet_ok_on_array_pipeline(self):
        pipeline = _pipeline(array_width=16)
        packet = make_coflow_packet(1, 0, 0, [(i, i) for i in range(16)])
        record = pipeline.service(
            packet, 0.0, lambda c, p, v: Decision.forward(), enforce_width=True
        )
        assert record.decision.verdict is Verdict.FORWARD

    def test_counters_track_packets_and_elements(self):
        pipeline = _pipeline()
        pipeline.service(make_coflow_packet(1, 0, 0, [(1, 1), (2, 2)]), 0.0, None)
        assert pipeline.stats.value(f"{pipeline.path}.packets") == 1
        assert pipeline.stats.value(f"{pipeline.path}.elements") == 2


class TestHookElision:
    """A service without a hook builds no PHV; a hook that only forwards
    is its reference."""

    @staticmethod
    def _packets():
        """Accepted packets (coflow arrays, a bare non-IPv4 frame) and a
        rejected one (Ethernet promising an IPv4 header it lacks)."""
        return [
            make_coflow_packet(1, 0, 0, [(1, 1)]),
            make_coflow_packet(1, 0, 1, [(2, 2), (3, 3)]),
            Packet([ETHERNET.instantiate(ethertype=0x86DD)]),
            Packet([ETHERNET.instantiate(ethertype=0x0800)]),
            make_coflow_packet(2, 1, 0, [(4, 4)] * 16),
        ]

    @classmethod
    def _observe(cls, hook):
        pipeline = _pipeline(array_width=16)
        services = []
        # Two packets per ready time, so some services queue.
        for index, packet in enumerate(cls._packets()):
            before = consume_packet_id()
            record = pipeline.service(packet, (index // 2) * 1e-9, hook)
            draws = consume_packet_id() - before - 1
            services.append((record, draws))
        return (
            services,
            pipeline.stats.snapshot(),
            pipeline.parser.packets_parsed,
            pipeline.parser.packets_rejected,
            pipeline.deparser.packets_deparsed,
            list(pipeline.histogram("queueing_delay_s")._samples),
        )

    def test_no_hook_matches_pass_through_hook(self):
        elided = self._observe(None)
        reference = self._observe(lambda ctx, packet, phv: Decision.forward())
        assert elided == reference
        verdicts = [record.decision.verdict for record, _ in elided[0]]
        assert Verdict.DROP in verdicts and Verdict.FORWARD in verdicts
