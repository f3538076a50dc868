"""Latency-attribution conservation: every nanosecond accounted, exactly.

The profiler's contract is *bit-exact* conservation: for every packet
that reached a terminal state, the per-component attribution sums to the
end-to-end latency with zero residual — not within an epsilon, exactly
0.0 — and the per-bucket histogram counts line up with the number of
delivered plus consumed packets.  Attribution is a fold over one
switch's span records, recorded with every packet sampled.
"""

from __future__ import annotations

import pytest

from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.rmt.config import RMTConfig, StateMode
from repro.rmt.switch import RMTSwitch
from repro.telemetry import (
    BUCKETS,
    QUEUE_BUCKETS,
    RunProfile,
    SpanRecorder,
    SpanSampler,
    profile_chrome_events,
    profile_run,
)
from repro.telemetry.runner import TRACEABLE, run_monitor, run_profile
from repro.units import GBPS

WORKERS = [0, 1, 4, 5]


def _spanned(switch, app, sample=1):
    """Run ``switch`` with a span recorder sampling 1 in ``sample``."""
    spans = SpanRecorder(SpanSampler(seed=0, sample=sample))
    switch.spans = spans
    result = switch.run(app.workload(switch.config.port_speed_bps))
    return result, spans


def _profiled_rmt(config, params=64):
    app = ParameterServerApp(WORKERS, params, elements_per_packet=1)
    result, spans = _spanned(RMTSwitch(config, app), app)
    return profile_run(spans, "rmt"), result, spans


def _profiled_adcp(config, params=64):
    app = ParameterServerApp(WORKERS, params, elements_per_packet=16)
    result, spans = _spanned(ADCPSwitch(config, app), app)
    return profile_run(spans, "adcp"), result, spans


def _recirculating_config() -> RMTConfig:
    return RMTConfig(
        num_ports=8,
        pipelines=2,
        port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0,
        frequency_hz=1.25e9,
        state_mode=StateMode.RECIRCULATE,
    )


def _assert_exact_conservation(run: RunProfile) -> None:
    for profile in run.packets.values():
        assert profile.unattributed_s == 0.0, (
            f"packet {profile.packet_id} leaked "
            f"{profile.unattributed_s * 1e9} ns"
        )
        # The float components re-sum to the latency within one ulp-ish
        # tolerance (the exact check is the Fraction residual above).
        total = sum(profile.components.values())
        assert total == pytest.approx(profile.latency_s, rel=1e-12, abs=0.0)
        # Tiling: contiguous, ordered, covering [origin, end].
        assert profile.segments[0].start_s == profile.origin_s
        assert profile.segments[-1].end_s == profile.end_s
        for left, right in zip(profile.segments, profile.segments[1:]):
            assert left.end_s == right.start_s


class TestConservationRMT:
    def test_egress_pin_run_is_fully_attributed(self, small_rmt_config):
        run, result, _ = _profiled_rmt(small_rmt_config)
        assert run.profiled > 0
        _assert_exact_conservation(run)

    def test_recirculate_run_is_fully_attributed(self):
        run, result, _ = _profiled_rmt(_recirculating_config())
        assert result.recirculated_packets > 0
        assert run.bucket_total_s("recirculation") > 0.0
        _assert_exact_conservation(run)

    def test_profiled_count_matches_terminals(self, small_rmt_config):
        run, result, spans = _profiled_rmt(small_rmt_config)
        assert run.count("delivered") == len(result.delivered)
        assert run.count("consumed") == result.consumed
        assert result.consumed == len(spans.marks["rmt"].consumed) > 0
        assert run.profiled == len(result.delivered) + result.consumed
        # The latency histogram sees every profiled packet once.
        assert run.latency.count == run.profiled

    def test_bucket_histogram_counts_bounded_by_profiled(
        self, small_rmt_config
    ):
        run, _, _ = _profiled_rmt(small_rmt_config)
        for bucket in BUCKETS:
            assert run.histograms[bucket].count <= run.profiled
        # Every delivered packet serialized out of a TX port.
        assert (
            run.histograms["egress_serial"].count >= run.count("delivered")
        )

    def test_bucket_means_sum_to_mean_latency(self, small_rmt_config):
        run, _, _ = _profiled_rmt(small_rmt_config)
        total = sum(run.bucket_mean_s(bucket) for bucket in BUCKETS)
        assert total == pytest.approx(run.mean_latency_s, rel=1e-9)


class TestConservationADCP:
    def test_run_is_fully_attributed(self, small_adcp_config):
        run, result, _ = _profiled_adcp(small_adcp_config)
        assert run.profiled > 0
        assert run.count("delivered") == len(result.delivered)
        _assert_exact_conservation(run)

    def test_adcp_never_recirculates(self, small_adcp_config):
        run, result, _ = _profiled_adcp(small_adcp_config)
        assert result.recirculated_packets == 0
        assert run.bucket_total_s("recirculation") == 0.0
        assert run.histograms["recirculation"].count == 0

    def test_queue_buckets_are_the_wait_buckets(self):
        assert QUEUE_BUCKETS <= set(BUCKETS)
        assert "tm_service" not in QUEUE_BUCKETS
        assert "match_action" not in QUEUE_BUCKETS


class TestReplicationLineage:
    def test_multicast_copies_inherit_parent_journey(self, small_rmt_config):
        """Delivered multicast copies extend back through the replication
        parent, so the parent's recirculation detour shows up in the
        copies' attribution (the EGRESS_PIN result-delivery path)."""
        run, result, spans = _profiled_rmt(small_rmt_config)
        assert result.recirculated_packets > 0
        parents = spans.marks["rmt"].parents
        assert parents
        # Each copy's tiling starts with its parent's, at the parent's
        # first tile.
        for copy, parent in parents.items():
            if copy in run.packets:
                assert (
                    run.packets[copy].origin_s
                    == _first_start(spans, parent)
                )
        assert run.bucket_total_s("recirculation") > 0.0
        with_recirc = [
            p for p in run.packets.values() if p.recirculations > 0
        ]
        assert with_recirc
        _assert_exact_conservation(run)


class TestRunProfileShape:
    def test_to_json_digest(self, small_adcp_config):
        run, _, _ = _profiled_adcp(small_adcp_config)
        digest = run.to_json()
        assert digest["label"] == "adcp"
        assert digest["profiled_packets"] == run.profiled
        assert set(digest["buckets"]) == set(BUCKETS)
        shares = sum(b["share"] for b in digest["buckets"].values())
        assert shares == pytest.approx(1.0, rel=1e-9)

    def test_chrome_events_cover_segments(self, small_adcp_config):
        run, _, _ = _profiled_adcp(small_adcp_config)
        events = profile_chrome_events(run)
        segments = sum(len(p.segments) for p in run.packets.values())
        assert len(events) == segments
        assert all(e["ph"] == "X" for e in events)
        assert {e["tid"] for e in events} <= set(BUCKETS)



def _first_start(spans, packet):
    """Where a packet's life on the switch starts: its earliest record
    or detour."""
    waits = [w.start_s for w in spans.marks["rmt"].waits.get(packet, [])]
    return min(
        [r.start_s for r in spans.records if r.packet == packet] + waits
    )


class TestSpanFold:
    def test_residencies_count_every_tm_admission(self, small_rmt_config):
        """Little's law's W: one residency per TM admission (the TM's
        own counter), dropped-at-egress and recirculating packets too."""
        run, result, _ = _profiled_rmt(small_rmt_config)
        (tm,) = run.residencies
        assert tm == "rmt.tm"
        assert len(run.residencies[tm]) == result.counters["rmt.tm.admitted"]
        assert all(w > 0.0 for w in run.residencies[tm])

    def test_sampled_fold_profiles_only_sampled_packets(
        self, small_adcp_config
    ):
        app = ParameterServerApp(WORKERS, 64, elements_per_packet=16)
        _, spans = _spanned(ADCPSwitch(small_adcp_config, app), app, 4)
        run = profile_run(spans, "adcp", label="sampled")
        assert run.label == "sampled"
        assert 0 < run.profiled
        assert set(run.packets) <= {r.packet for r in spans.records}
        full, _, _ = _profiled_adcp(small_adcp_config)
        assert run.profiled < full.profiled

    def test_unknown_switch_folds_to_an_empty_profile(self, small_adcp_config):
        _, _, spans = _profiled_adcp(small_adcp_config)
        run = profile_run(spans, "rmt")
        assert run.profiled == 0 and run.residencies == {}

    def test_recorded_hops_name_their_components(self):
        _, _, spans = _profiled_rmt(_recirculating_config())
        components = {(r.hop, r.component) for r in spans.records}
        assert ("tm_service", "rmt.tm") in components
        assert ("tm_queue", "rmt.tm") in components
        assert ("parse", "rmt.ingress0") in components
        assert any(
            hop == "egress_serial" and component.startswith("port.tx")
            for hop, component in components
        )
        waits = [
            wait
            for waits in spans.marks["rmt"].waits.values()
            for wait in waits
        ]
        assert {w.hop for w in waits} == {"recirculation"}
        assert {w.component for w in waits} <= {"rmt.recirc0", "rmt.recirc1"}


@pytest.mark.parametrize("workload", sorted(TRACEABLE))
def test_profile_and_monitor_record_no_trace_event(workload, tmp_path):
    """``profile`` and ``monitor`` run on a monitor plus span records:
    every section hub's trace recorder stays empty."""
    profiled = run_profile(workload)
    monitored = run_monitor(workload, ledger_out=tmp_path / "ledger.json")
    for section in profiled.sections + monitored.sections:
        assert section.telemetry.trace.emitted == 0, section.label
    assert all(s.profile.profiled for s in profiled.sections)
