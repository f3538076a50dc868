"""Sampled fabric-wide span tracing: determinism, ledgers, attribution.

The tentpole claims under test:

- head-based sampling is decided once at injection from (seed, relative
  packet id) alone, so the same packets are sampled on every target and
  queue backend, and span ledgers are byte-identical across repeats
  (modulo ``git_sha``);
- the span id survives cross-switch handoffs and is inherited by
  ``OP_RESULT`` emissions, stitching one causal trace per sampled packet;
- ``sampled`` telemetry keeps the PR 7 fast path (``trace is None``,
  batched admission) while recording;
- sampled at 1-in-1, the span ledger's per-hop totals (``tm`` rolls up
  ``tm_service`` + ``tm_queue``) reconcile with the bit-exact
  attribution folded from the same records.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigError
from repro.fabric import run_fabric
from repro.telemetry import Telemetry
from repro.telemetry.ledger import (
    SPAN_LEDGER_SCHEMA,
    diff_ledgers,
    load_ledger,
    series_direction,
    write_ledger,
)
from repro.telemetry.sampler import SpanSampler, TelemetryLevel
from repro.telemetry.spans import (
    LEDGER_HOPS,
    SPAN_HOPS,
    SpanRecord,
    SpanRecorder,
    build_span_ledger,
    coflow_critical_paths,
    span_chrome_events,
)
from repro.units import GBPS


def _strip_sha(ledger: dict) -> str:
    doc = dict(ledger)
    doc.pop("git_sha", None)
    return json.dumps(doc, sort_keys=True)


def _sampled_fabric(target, sample=4, seed=0, workload="fabric-allreduce"):
    recorder = SpanRecorder(SpanSampler(seed=seed, sample=sample))
    run = run_fabric(
        "leaf-spine-2x2", workload, target=target, seed=seed, spans=recorder
    )
    return recorder, run


@pytest.fixture(scope="module")
def rmt_fabric():
    return _sampled_fabric("rmt")


@pytest.fixture(scope="module")
def adcp_fabric():
    return _sampled_fabric("adcp")


class TestTelemetryLevel:
    def test_parse_accepts_names_and_instances(self):
        assert TelemetryLevel.parse("off") is TelemetryLevel.OFF
        assert TelemetryLevel.parse("SAMPLED") is TelemetryLevel.SAMPLED
        assert (
            TelemetryLevel.parse(TelemetryLevel.FULL) is TelemetryLevel.FULL
        )

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError, match="telemetry level"):
            TelemetryLevel.parse("verbose")

    def test_ladder_semantics(self):
        assert not any(
            level.wants_trace
            for level in TelemetryLevel
            if level is not TelemetryLevel.FULL
        )
        assert TelemetryLevel.FULL.wants_trace
        assert not TelemetryLevel.OFF.wants_monitor
        assert TelemetryLevel.COUNTERS.wants_monitor
        assert TelemetryLevel.SAMPLED.wants_monitor
        assert TelemetryLevel.SAMPLED.wants_spans
        assert not TelemetryLevel.COUNTERS.wants_spans

    def test_at_level_wiring(self):
        off = Telemetry.at_level("off")
        assert off.trace.enabled is False
        assert off.monitor is None and off.spans is None
        counters = Telemetry.at_level("counters")
        assert counters.monitor is not None and counters.spans is None
        sampled = Telemetry.at_level("sampled", seed=3, sample=8)
        assert sampled.spans is not None
        assert sampled.spans.sampler.seed == 3
        assert sampled.spans.sampler.sample == 8
        full = Telemetry.at_level("full")
        assert full.trace.enabled is True and full.spans is None


class TestSpanSampler:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError, match="sample"):
            SpanSampler(seed=0, sample=0)

    def test_sample_one_admits_everything(self):
        sampler = SpanSampler(seed=0, sample=1)
        assert all(sampler.admits(i) for i in range(100, 200))
        assert sampler.coverage == 1.0

    def test_decisions_depend_only_on_relative_position(self):
        """Two samplers offered disjoint absolute id ranges make the
        identical decision sequence — repeated in-process runs sample
        the same positions despite the global id counter advancing."""
        a = SpanSampler(seed=7, sample=4)
        b = SpanSampler(seed=7, sample=4)
        decisions_a = [a.admits(i) for i in range(0, 256)]
        decisions_b = [b.admits(i) for i in range(100_000, 100_256)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_seed_changes_the_subset(self):
        a = SpanSampler(seed=0, sample=4)
        b = SpanSampler(seed=1, sample=4)
        assert [a.admits(i) for i in range(512)] != [
            b.admits(i) for i in range(512)
        ]

    def test_span_ids_are_run_relative(self):
        sampler = SpanSampler(seed=0, sample=1)
        sampler.admits(4242)
        assert sampler.span_id(4242) == 0
        assert sampler.span_id(4250) == 8


class TestFabricSpans:
    def test_span_survives_switch_handoff(self, rmt_fabric):
        """One sampled packet's hops appear on several switches — the id
        rode through ``switch_handoff``'s per-hop meta reset."""
        recorder, _ = rmt_fabric
        switches_by_span: dict[int, set[str]] = {}
        for record in recorder.records:
            if record.hop != "link":
                switches_by_span.setdefault(record.span, set()).add(
                    record.switch
                )
        assert any(len(s) >= 2 for s in switches_by_span.values())

    def test_link_hops_recorded(self, rmt_fabric):
        recorder, _ = rmt_fabric
        link_records = [r for r in recorder.records if r.hop == "link"]
        assert link_records
        assert all("->" in r.switch for r in link_records)

    def test_emissions_inherit_the_span(self, adcp_fabric):
        """OP_RESULT packets carry their trigger's span id: records for
        packets other than the sampled root share its span."""
        recorder, _ = adcp_fabric
        assert any(r.packet != r.span for r in recorder.records)

    def test_hop_vocabulary(self, rmt_fabric):
        """Switch hops use the attribution buckets, TM service and TM
        queueing apart; every record names its component."""
        recorder, _ = rmt_fabric
        hops = {r.hop for r in recorder.records}
        assert hops <= set(SPAN_HOPS)
        assert {"tm_service", "tm_queue", "link"} <= hops
        assert all(r.component for r in recorder.records)
        assert all(
            r.component == r.switch
            for r in recorder.records
            if r.hop == "link"
        )

    def test_marks_stay_beside_the_records(self, rmt_fabric):
        """Consumed packets and multicast parents are marks, never
        records, and only sampled packets get them."""
        recorder, _ = rmt_fabric
        recorded = {(r.switch, r.packet) for r in recorder.records}
        consumed = [
            (switch, packet)
            for switch, marks in recorder.marks.items()
            for packet in marks.consumed
        ]
        assert consumed
        assert set(consumed) <= recorded

    def test_fast_path_survives_sampling(self):
        """Sampling must not disable batched admission (satellite 1's
        regression assert lives in benchmarks; this is the unit check)."""
        recorder, run = _sampled_fabric("rmt", sample=16, seed=0)
        assert run.events_coalesced > 0
        assert recorder.records

    def test_sampled_run_matches_unsampled(self):
        """Sampling is a pure observer: the fabric's ledger is identical
        with and without a recorder attached."""
        _, sampled = _sampled_fabric("rmt", sample=4)
        plain = run_fabric(
            "leaf-spine-2x2", "fabric-allreduce", target="rmt", seed=0
        )
        assert _strip_sha(sampled.ledger()) == _strip_sha(plain.ledger())


class TestSpanLedgerDeterminism:
    @pytest.mark.parametrize("target", ["rmt", "adcp"])
    def test_byte_identical_across_repeats(self, target):
        docs = []
        for _ in range(2):
            recorder, run = _sampled_fabric(target, sample=8)
            docs.append(
                build_span_ledger(
                    "fabric-allreduce",
                    recorder,
                    seed=0,
                    span_coflows=run.span_coflows,
                )
            )
        assert _strip_sha(docs[0]) == _strip_sha(docs[1])

    def test_ledger_shape(self, adcp_fabric):
        recorder, run = adcp_fabric
        doc = build_span_ledger(
            "fabric-allreduce",
            recorder,
            seed=0,
            span_coflows=run.span_coflows,
        )
        assert doc["schema"] == SPAN_LEDGER_SCHEMA
        labels = [section["label"] for section in doc["sections"]]
        assert "spans" in labels and "critical_path" in labels
        overview = next(
            s for s in doc["sections"] if s["label"] == "spans"
        )
        coverage = overview["series"]["span.coverage"]
        assert coverage["direction"] == "higher"
        assert 0.0 < coverage["mean"] <= 1.0
        assert len(doc["spans"]) == len(recorder.records)


class TestSpanLedgerDiff:
    """Satellite 3: span ledgers flow through ``load_ledger`` and
    ``repro diff`` with the right improvement directions."""

    def test_load_accepts_span_schema(self, tmp_path, adcp_fabric):
        recorder, run = adcp_fabric
        doc = build_span_ledger(
            "fabric-allreduce",
            recorder,
            seed=0,
            span_coflows=run.span_coflows,
        )
        path = write_ledger(tmp_path / "spans.json", doc)
        assert load_ledger(path)["schema"] == SPAN_LEDGER_SCHEMA

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.other/1"}))
        with pytest.raises(ConfigError, match="schema"):
            load_ledger(path)

    def test_coverage_drop_is_a_regression(self, adcp_fabric):
        recorder, run = adcp_fabric
        base = build_span_ledger(
            "fabric-allreduce",
            recorder,
            seed=0,
            span_coflows=run.span_coflows,
        )
        worse = json.loads(json.dumps(base))
        overview = next(
            s for s in worse["sections"] if s["label"] == "spans"
        )
        overview["series"]["span.coverage"]["mean"] *= 0.5
        diff = diff_ledgers(base, worse)
        assert diff.exit_code == 1
        assert any(
            row.series == "span.coverage" and row.verdict == "regressed"
            for row in diff.rows
        )

    def test_hop_duration_growth_is_a_regression(self, adcp_fabric):
        recorder, run = adcp_fabric
        base = build_span_ledger(
            "fabric-allreduce",
            recorder,
            seed=0,
            span_coflows=run.span_coflows,
        )
        worse = json.loads(json.dumps(base))
        section = next(
            s
            for s in worse["sections"]
            if s["label"] not in ("spans", "critical_path")
            and s["series"]
        )
        name, series = next(iter(section["series"].items()))
        series["mean"] = series["mean"] * 2 + 1.0
        diff = diff_ledgers(base, worse)
        assert any(
            row.series == name and row.verdict == "regressed"
            for row in diff.rows
        )

    def test_direction_metadata(self):
        assert (
            series_direction("span.coverage", {"direction": "higher"})
            == "higher"
        )
        assert series_direction("span.ingress_queue_s", {}) == "lower"
        assert series_direction("sampled_events_per_sec", {}) == "higher"


class TestCriticalPath:
    def test_synthetic_dominant_hop(self):
        records = [
            SpanRecord(0, 0, "s", "ingress_queue", 0.0, 1.0),
            SpanRecord(0, 0, "s", "match_action", 1.0, 2.0),
            SpanRecord(0, 0, "s", "link", 2.0, 9.0),
            SpanRecord(1, 1, "s", "match_action", 0.0, 2.5),
        ]
        paths = coflow_critical_paths(records, {0: "c1", 1: "c1"})
        (path,) = paths
        assert path.coflow == "c1" and path.spans == 2
        assert path.critical_span == 0  # ends at 9.0, later than 2.5
        assert path.cct_s == 9.0
        assert path.dominant == "link"
        assert path.hop_totals["link"] == 7.0
        assert path.other_s == 0.0

    def test_untracked_time_lands_in_other(self):
        records = [
            SpanRecord(0, 0, "s", "match_action", 0.0, 1.0),
            SpanRecord(0, 0, "s", "egress_serial", 5.0, 6.0),
        ]
        (path,) = coflow_critical_paths(records, {0: "c"})
        assert path.other_s == pytest.approx(4.0)
        assert path.dominant == "other"

    def test_unmapped_spans_ignored(self):
        records = [SpanRecord(0, 0, "s", "match_action", 0.0, 1.0)]
        assert coflow_critical_paths(records, {5: "c"}) == []

    def test_fabric_coflows_attributed(self, rmt_fabric):
        recorder, run = rmt_fabric
        paths = coflow_critical_paths(recorder.records, run.span_coflows)
        assert {p.coflow for p in paths} == {"c1", "c2"}
        for path in paths:
            assert path.cct_s > 0
            assert path.dominant in path.hop_totals or path.dominant == "other"
            assert path.other_s >= 0.0
            assert all(v >= 0.0 for v in path.hop_totals.values())
            # The coflow window covers its critical chain's window.
            chain = [
                r for r in recorder.records if r.span == path.critical_span
            ]
            window = max(r.end_s for r in chain) - min(
                r.start_s for r in chain
            )
            assert path.cct_s >= window - 1e-12


class TestProfilerReconciliation:
    """Sampled 1-in-1 on a recirculation-free run, the span ledger's
    per-hop totals equal the attribution folded from the same records,
    with the ledger's ``tm`` equal to ``tm_service + tm_queue``."""

    @pytest.fixture(scope="class")
    def reconciled(self):
        from repro.adcp.config import ADCPConfig
        from repro.adcp.switch import ADCPSwitch
        from repro.apps import ParameterServerApp
        from repro.telemetry.profiler import profile_run

        config = ADCPConfig(
            num_ports=8, port_speed_bps=100 * GBPS, demux_factor=2,
            central_pipelines=4,
        )
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
        telemetry = Telemetry.at_level("sampled", seed=0, sample=1)
        switch = ADCPSwitch(config, app, telemetry=telemetry)
        result = switch.run(app.workload(config.port_speed_bps))
        assert result.recirculated_packets == 0
        return telemetry.spans, profile_run(telemetry.spans, "adcp")

    def test_fabric_wide_totals_match(self, reconciled):
        spans, profile = reconciled
        ledger = build_span_ledger("adcp", spans, seed=0)
        (section,) = [s for s in ledger["sections"] if s["label"] == "adcp"]
        series = section["series"]
        assert set(series) == {
            f"span.{hop}_s" for hop in LEDGER_HOPS if hop != "link"
        }
        for hop in ("ingress_queue", "parse", "match_action", "egress_serial"):
            assert math.isclose(
                series[f"span.{hop}_s"]["total"],
                profile.bucket_total_s(hop),
                rel_tol=1e-9,
                abs_tol=1e-15,
            ), hop
        assert math.isclose(
            series["span.tm_s"]["total"],
            profile.bucket_total_s("tm_service")
            + profile.bucket_total_s("tm_queue"),
            rel_tol=1e-9,
        )
        assert series["span.tm_s"]["samples"] == sum(
            1 for r in spans.records if r.hop in ("tm_service", "tm_queue")
        )

    def test_per_span_chains_match_per_packet_attribution(self, reconciled):
        """Each span chain's hop totals equal the per-packet attribution
        summed over the chain's packets — the critical-path analyzer's
        numbers are the attribution's numbers."""
        spans, profile = reconciled
        assert {r.packet for r in spans.records} == set(profile.packets)
        by_span: dict[int, list] = {}
        for record in spans.records:
            by_span.setdefault(record.span, []).append(record)
        checked = 0
        for chain in by_span.values():
            profiles = [profile.packets[p] for p in {r.packet for r in chain}]
            for hop in SPAN_HOPS[:-1]:
                span_total = sum(
                    r.duration_s for r in chain if r.hop == hop
                )
                prof_total = sum(
                    p.components.get(hop, 0.0) for p in profiles
                )
                assert math.isclose(
                    span_total, prof_total, rel_tol=1e-9, abs_tol=1e-15
                ), hop
            checked += 1
        assert checked > 0


class TestChromeExport:
    def test_event_shape(self):
        records = [SpanRecord(3, 5, "leaf0", "parse", 1e-6, 2e-6)]
        (event,) = span_chrome_events(records)
        assert event["ph"] == "X" and event["cat"] == "span"
        assert event["pid"] == "leaf0" and event["tid"] == "span 3"
        assert event["ts"] == pytest.approx(1.0)
        assert event["dur"] == pytest.approx(1.0)
        assert event["args"] == {"span": 3, "packet": 5}

    def test_pid_prefix(self):
        records = [SpanRecord(0, 0, "leaf0", "parse", 0.0, 1.0)]
        (event,) = span_chrome_events(records, "rmt-")
        assert event["pid"] == "rmt-leaf0"


class TestRunSpans:
    def test_both_targets_and_ledger(self, tmp_path):
        from repro.telemetry.runner import run_spans

        run = run_spans(
            "leaf-spine-2x2",
            "fabric-allreduce",
            sample=8,
            ledger_out=tmp_path / "spans.json",
            chrome_out=tmp_path / "spans_chrome.json",
        )
        assert [s.target for s in run.sections] == ["adcp", "rmt"]
        ledger = load_ledger(run.ledger_path)
        assert ledger["schema"] == SPAN_LEDGER_SCHEMA
        labels = [s["label"] for s in ledger["sections"]]
        assert "adcp-spans" in labels and "rmt-spans" in labels
        trace = json.loads(
            (tmp_path / "spans_chrome.json").read_text()
        )
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert any(p.startswith("adcp-") for p in pids)
        assert any(p.startswith("rmt-") for p in pids)
        summary = run.summary()
        assert all(
            s["packets_sampled"] > 0 for s in summary["sections"]
        )
        assert all(s["critical_paths"] for s in summary["sections"])

    def test_single_target_and_repeatability(self):
        from repro.telemetry.runner import run_spans

        first = run_spans(
            "leaf-spine-2x2", "fabric-allreduce", target="rmt", sample=8
        )
        second = run_spans(
            "leaf-spine-2x2", "fabric-allreduce", target="rmt", sample=8
        )
        assert _strip_sha(first.ledger) == _strip_sha(second.ledger)

    def test_rejects_unknown_target(self):
        from repro.telemetry.runner import run_spans

        with pytest.raises(ConfigError, match="target"):
            run_spans("leaf-spine-2x2", "fabric-allreduce", target="tofino")

    def test_trace_sample_merges_span_slices(self, tmp_path):
        from repro.telemetry.runner import run_trace

        run = run_trace(
            "quickstart", out=tmp_path / "trace.json", sample=4
        )
        assert run.spans is not None and run.spans.records
        trace = json.loads((tmp_path / "trace.json").read_text())
        span_events = [
            e for e in trace["traceEvents"] if e.get("cat") == "span"
        ]
        assert span_events
        assert run.summary()["spans"]["packets_sampled"] > 0


class TestServeSpans:
    def test_serve_sampling(self):
        from repro.serve import run_serve

        run = run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            duration_ns=4000.0,
            sample=8,
        )
        assert run.spans is not None
        assert run.spans.sampler.admitted > 0
        assert run.span_records()
        ledger = run.ledger()
        spans_section = next(
            s for s in ledger["sections"] if s["label"] == "spans"
        )
        assert spans_section["series"]["span.coverage"]["mean"] > 0
        assert run.summary()["spans"]["records"] == len(run.spans.records)

    def test_serve_without_sampling_unchanged(self):
        from repro.serve import run_serve

        run = run_serve(
            "leaf-spine-2x2", "fabric-allreduce", duration_ns=4000.0
        )
        assert run.spans is None and run.span_records() == []
        assert all(
            s["label"] != "spans" for s in run.ledger()["sections"]
        )
