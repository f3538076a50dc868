"""Latency-attribution conservation: every nanosecond accounted, exactly.

The profiler's contract is *bit-exact* conservation: for every packet
that reached a terminal state, the per-component attribution sums to the
end-to-end latency with zero residual — not within an epsilon, exactly
0.0 — and the per-bucket histogram counts line up with the number of
delivered plus consumed packets.
"""

from __future__ import annotations

import pytest

from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.errors import SimulationError
from repro.rmt.config import RMTConfig, StateMode
from repro.rmt.switch import RMTSwitch
from repro.telemetry import (
    BUCKETS,
    QUEUE_BUCKETS,
    RunProfile,
    Telemetry,
    profile_chrome_events,
    profile_run,
)
from repro.units import GBPS

WORKERS = [0, 1, 4, 5]


def _profiled_rmt(config, params=64):
    telemetry = Telemetry(capacity=1 << 20)
    app = ParameterServerApp(WORKERS, params, elements_per_packet=1)
    switch = RMTSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    return profile_run(telemetry.trace, label="rmt"), result, telemetry


def _profiled_adcp(config, params=64):
    telemetry = Telemetry(capacity=1 << 20)
    app = ParameterServerApp(WORKERS, params, elements_per_packet=16)
    switch = ADCPSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    return profile_run(telemetry.trace, label="adcp"), result, telemetry


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
        # Segment tiling: contiguous, ordered, covering [origin, end].
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
        run, result, telemetry = _profiled_rmt(small_rmt_config)
        consumed_events = telemetry.trace.count(name="packet.consumed")
        assert run.count("delivered") == len(result.delivered)
        assert run.count("consumed") == consumed_events
        assert run.profiled == len(result.delivered) + consumed_events
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
        run, result, telemetry = _profiled_rmt(small_rmt_config)
        assert result.recirculated_packets > 0
        replicated = telemetry.trace.count(name="packet.replicated")
        assert replicated > 0
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

    def test_overwritten_ring_is_rejected(self, small_rmt_config):
        telemetry = Telemetry(capacity=16)  # tiny ring: guaranteed wrap
        app = ParameterServerApp(WORKERS, 64, elements_per_packet=1)
        switch = RMTSwitch(small_rmt_config, app, telemetry=telemetry)
        switch.run(app.workload(small_rmt_config.port_speed_bps))
        assert telemetry.trace.overwritten > 0
        with pytest.raises(SimulationError):
            profile_run(telemetry.trace)
