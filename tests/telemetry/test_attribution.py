"""Bottleneck analysis and gap attribution (repro.telemetry.attribution).

The acceptance questions, answered empirically:

- on the Table-1 ML-training workload the RMT-vs-ADCP mean-latency gap
  is majority-attributed to recirculation plus TM queue-wait, with the
  ADCP side recording exactly zero recirculation time;
- the top-k critical-component ranking fingers the recirculation path's
  traffic manager on RMT coflow runs and the central-bank lanes on
  small ADCP configurations;
- the Little's-law cross-check agrees with the sampled occupancy gauge
  on the recirculate workload.
"""

from __future__ import annotations

import math

import pytest

from repro.adcp.config import ADCPConfig
from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.errors import SimulationError
from repro.telemetry import (
    AttributionTable,
    BUCKETS,
    LittlesLawCheck,
    ResourceMonitor,
    RunProfile,
    SpanRecorder,
    SpanSampler,
    Telemetry,
    analyze_bottlenecks,
    attribution_gap,
    monitor_littles_checks,
    profile_run,
)
from repro.telemetry.runner import run_profile
from repro.units import GBPS


@pytest.fixture(scope="module")
def mltrain():
    """The Table-1 ML-training pair, profiled (ADCP + RMT sections)."""
    return run_profile("mltrain")


@pytest.fixture(scope="module")
def recirculate():
    """The recirculating-RMT workload, profiled (one section)."""
    return run_profile("recirculate")


def _section(run, label):
    return next(s for s in run.sections if s.label == label)


class TestTable1Gap:
    def test_rmt_is_the_slow_section(self, mltrain):
        assert mltrain.gap is not None
        assert mltrain.gap_labels == ("rmt", "adcp")

    def test_gap_shares_sum_to_one(self, mltrain):
        # Each run's bucket means sum to its mean latency (conservation),
        # so the per-bucket gap shares telescope to exactly the gap.
        assert sum(mltrain.gap.values()) == pytest.approx(1.0, rel=1e-9)

    def test_gap_majority_is_recirculation_plus_tm_queue(self, mltrain):
        blamed = mltrain.gap["recirculation"] + mltrain.gap["tm_queue"]
        assert blamed > 0.5
        assert mltrain.gap["recirculation"] > 0.0

    def test_adcp_records_zero_recirculation(self, mltrain):
        adcp = _section(mltrain, "adcp").profile
        assert adcp.bucket_total_s("recirculation") == 0.0
        assert adcp.histograms["recirculation"].count == 0

    def test_rmt_critical_path_is_the_traffic_manager(self, mltrain):
        report = _section(mltrain, "rmt").report
        top = report.critical[0]
        assert top.component == "rmt.tm"
        assert top.share > 0.5
        assert top.queue_share > 0.9  # the TM's time is queue-wait
        assert report.queue_delay_share > 0.5


def _small_adcp_report(monitor):
    """The bottleneck report of a small ADCP run, with or without a
    monitor on its hub."""
    spans = SpanRecorder(SpanSampler(seed=0, sample=1))
    telemetry = Telemetry(monitor=monitor, spans=spans)
    telemetry.trace.disable()
    config = ADCPConfig(
        num_ports=4, port_speed_bps=100 * GBPS, demux_factor=2,
        central_pipelines=2,
    )
    app = ParameterServerApp([0, 1, 2, 3], 64, elements_per_packet=16)
    switch = ADCPSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    profile = profile_run(spans, "adcp", label="adcp-small")
    return analyze_bottlenecks(
        profile, monitor, duration_s=result.duration_s
    )


class TestSmallADCPCentralBank:
    def test_top_component_is_a_central_lane(self):
        """On a small ADCP config the slow central bank tops the ranking
        (the EXPERIMENTS.md Table-1 nuance: tiny configs pay for the
        central crossing)."""
        monitor = ResourceMonitor()
        report = _small_adcp_report(monitor)
        top = report.critical[0]
        assert top.component.startswith("adcp.central")
        # The lane's last monitored utilization rode along into the
        # ranking entry.
        series = monitor.column(f"{top.component}.utilization")
        assert top.utilization == series[-1]
        assert top.utilization > 0.0

    def test_without_monitor_report_has_no_utilization_or_littles(self):
        report = _small_adcp_report(None)
        assert report.critical
        assert all(entry.utilization is None for entry in report.critical)
        assert report.littles == []


class TestLittlesLaw:
    def test_report_rows_are_the_monitor_checks(self, recirculate):
        """One Little's-law loop: the report's rows are exactly
        :func:`monitor_littles_checks` over the section's monitor."""
        section = _section(recirculate, "rmt-recirculate")
        assert section.report.littles == monitor_littles_checks(
            section.profile,
            section.telemetry.monitor,
            section.result.duration_s,
        )

    def test_recirculation_tiles_carry_no_utilization(self, recirculate):
        """A recirculation tile spans a whole loop pass, so it does not
        borrow its loopback port's utilization; pipelines keep theirs."""
        report = _section(recirculate, "rmt-recirculate").report
        loops = [e for e in report.critical if ".recirc" in e.component]
        assert loops
        assert all(entry.utilization is None for entry in loops)
        assert any(entry.utilization is not None for entry in report.critical)

    def test_recirculate_tm_is_consistent(self, recirculate):
        report = _section(recirculate, "rmt-recirculate").report
        checks = {c.component: c for c in report.littles}
        assert "rmt.tm" in checks
        check = checks["rmt.tm"]
        assert check.consistent
        assert check.predicted_occupancy == pytest.approx(
            check.arrival_rate_pps * check.mean_residency_s
        )
        assert check.arrival_rate_pps > 0.0

    def test_ratio_of_empty_system_is_one(self):
        check = LittlesLawCheck(
            component="tm", arrival_rate_pps=0.0, mean_residency_s=0.0,
            predicted_occupancy=0.0, observed_occupancy=0.0, tolerance=2.0,
        )
        assert check.ratio == 1.0
        assert check.consistent

    def test_observed_without_predicted_is_inconsistent(self):
        check = LittlesLawCheck(
            component="tm", arrival_rate_pps=0.0, mean_residency_s=0.0,
            predicted_occupancy=0.0, observed_occupancy=1.5, tolerance=2.0,
        )
        assert check.ratio == math.inf
        assert not check.consistent

    def test_tolerance_bounds_both_sides(self):
        kwargs = dict(
            component="tm", arrival_rate_pps=1.0, mean_residency_s=1.0,
            tolerance=2.0,
        )
        low = LittlesLawCheck(
            predicted_occupancy=1.0, observed_occupancy=0.4, **kwargs
        )
        high = LittlesLawCheck(
            predicted_occupancy=1.0, observed_occupancy=2.5, **kwargs
        )
        ok = LittlesLawCheck(
            predicted_occupancy=1.0, observed_occupancy=1.3, **kwargs
        )
        assert not low.consistent
        assert not high.consistent
        assert ok.consistent


class TestAttributionTable:
    def test_requires_at_least_one_profile(self):
        with pytest.raises(SimulationError):
            AttributionTable()

    def test_merges_sections_like_one_run(self, mltrain):
        profiles = [s.profile for s in mltrain.sections]
        table = AttributionTable(*profiles)
        assert table.latency.count == sum(p.profiled for p in profiles)
        # Conservation survives the merge: bucket totals sum to latency.
        bucket_total = sum(
            table.histograms[bucket].total for bucket in BUCKETS
        )
        assert bucket_total == pytest.approx(
            table.latency.total, rel=1e-9
        )
        shares = sum(row.share for row in table.rows())
        assert shares == pytest.approx(1.0, rel=1e-9)

    def test_lines_render_every_bucket(self, mltrain):
        table = AttributionTable(_section(mltrain, "rmt").profile)
        text = "\n".join(table.lines(title="rmt"))
        for bucket in BUCKETS:
            assert bucket in text

    def test_empty_profile_renders_placeholder(self):
        table = AttributionTable(RunProfile("empty"))
        lines = table.lines(title="empty")
        assert lines == [
            "latency attribution — empty (no profiled packets)"
        ]
        assert table.to_json()["mean_latency_ns"] == 0.0


class TestAttributionGap:
    def test_rejects_a_slow_run_that_is_not_slower(self, mltrain):
        rmt = _section(mltrain, "rmt").profile
        adcp = _section(mltrain, "adcp").profile
        with pytest.raises(SimulationError, match="not slower"):
            attribution_gap(adcp, rmt)  # arguments swapped
