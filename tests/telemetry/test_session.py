"""Integration tests: telemetry wired into full switch runs."""

from __future__ import annotations

import json

import pytest

from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp, SortMergeJoinApp
from repro.errors import ConfigError
from repro.rmt.switch import RMTSwitch
from repro.telemetry import Category, ResourceMonitor, Telemetry


def _run_rmt(config, telemetry=None):
    app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=1)
    switch = RMTSwitch(config, app, telemetry=telemetry)
    return switch.run(app.workload(config.port_speed_bps))


def _run_adcp(config, telemetry=None):
    app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
    switch = ADCPSwitch(config, app, telemetry=telemetry)
    return switch.run(app.workload(config.port_speed_bps))


def _normalized(result):
    """Run outcome with globally-monotonic packet ids rebased to zero."""
    ids = [p.packet_id for p in result.delivered]
    base = min(ids) if ids else 0
    return (
        [i - base for i in ids],
        result.duration_s,
        result.recirculated_packets,
        result.consumed,
    )


class TestBinding:
    def test_hub_serves_one_switch(self, small_rmt_config):
        telemetry = Telemetry()
        RMTSwitch(small_rmt_config, telemetry=telemetry)
        with pytest.raises(ConfigError):
            RMTSwitch(small_rmt_config, telemetry=telemetry)

    def test_gauges_registered_per_component(self, small_adcp_config):
        """Binding attaches the hub's monitor, which collects every
        component's probes."""
        telemetry = Telemetry(monitor=ResourceMonitor())
        switch = ADCPSwitch(small_adcp_config, telemetry=telemetry)
        names = telemetry.monitor.names
        assert f"{switch.tm1.path}.occupancy" in names
        assert any(name.endswith(".utilization") for name in names)
        assert telemetry.monitor.attached is switch
        assert telemetry.switch is switch

    def test_default_hub_has_no_monitor(self, small_rmt_config):
        """A default hub samples nothing: the kernel keeps no probe."""
        telemetry = Telemetry()
        switch = RMTSwitch(small_rmt_config, telemetry=telemetry)
        assert telemetry.monitor is None
        assert switch._sim.time_probe is None

    def test_disabled_recorder_skips_trace_wiring(self, small_rmt_config):
        """A hub whose recorder is off at construction leaves every
        component on the ``trace is None`` fast path, but the monitor
        and its final sample still work."""
        telemetry = Telemetry(monitor=ResourceMonitor())
        telemetry.trace.disable()
        result = _run_rmt(small_rmt_config, telemetry)
        assert telemetry.trace.emitted == 0
        assert telemetry.trace.filtered == 0  # sites never reached emit()
        monitor = telemetry.monitor
        assert monitor.times_s[-1] == result.duration_s  # finish() sample
        assert monitor.column("rmt.recirculations")[-1] == (
            result.recirculated_packets
        )

    def test_merge_depth_gauge_with_ordered_flows(self, small_adcp_config):
        app = SortMergeJoinApp(left_port=0, right_port=1, output_port=7)
        telemetry = Telemetry(monitor=ResourceMonitor())
        switch = ADCPSwitch(
            small_adcp_config,
            app,
            ordered_flows=app.ordered_flows(),
            telemetry=telemetry,
        )
        assert f"{switch.tm1.path}.merge_depth" in telemetry.monitor.names


class TestRunConsistency:
    def test_rmt_trace_matches_counters(self, small_rmt_config):
        telemetry = Telemetry()
        result = _run_rmt(small_rmt_config, telemetry)
        trace = telemetry.trace
        assert trace.count(name="packet.delivered") == len(result.delivered)
        assert (
            trace.count(category=Category.RECIRC)
            == result.recirculated_packets
        )
        assert trace.overwritten == 0

    def test_adcp_trace_matches_counters(self, small_adcp_config):
        telemetry = Telemetry()
        result = _run_adcp(small_adcp_config, telemetry)
        trace = telemetry.trace
        assert trace.count(name="packet.delivered") == len(result.delivered)
        assert trace.count(name="packet.consumed") == result.consumed
        assert trace.count(name="tm1.place") > 0

    def test_final_snapshot_taken_on_finish(self, small_adcp_config):
        telemetry = Telemetry(monitor=ResourceMonitor())
        result = _run_adcp(small_adcp_config, telemetry)
        monitor = telemetry.monitor
        assert monitor.times_s[-1] == result.duration_s
        # The final sample sees the drained switch: TM1 is empty.
        tm1 = telemetry.switch.tm1.path
        assert monitor.column(f"{tm1}.occupancy")[-1] == 0.0
        assert result.counters["adcp.delivered"] == len(result.delivered)

    def test_periodic_snapshots_on_grid(self, small_rmt_config):
        telemetry = Telemetry(monitor=ResourceMonitor(interval_ns=10.0))
        result = _run_rmt(small_rmt_config, telemetry)
        periodic = telemetry.monitor.times_s[:-1]  # last one is finish()
        assert periodic
        for i, time_s in enumerate(periodic, start=1):
            assert time_s == pytest.approx(i * 1e-8)
        assert periodic[-1] <= result.duration_s


class TestNonPerturbation:
    def test_rmt_results_identical_with_and_without(self, small_rmt_config):
        plain = _normalized(_run_rmt(small_rmt_config))
        traced = _normalized(
            _run_rmt(
                small_rmt_config,
                Telemetry(monitor=ResourceMonitor(interval_ns=10.0)),
            )
        )
        assert plain == traced

    def test_adcp_results_identical_with_and_without(self, small_adcp_config):
        plain = _normalized(_run_adcp(small_adcp_config))
        traced = _normalized(
            _run_adcp(
                small_adcp_config,
                Telemetry(monitor=ResourceMonitor(interval_ns=10.0)),
            )
        )
        assert plain == traced

    def test_seeded_event_stream_reproduces(self, small_rmt_config):
        streams = []
        for _ in range(2):
            telemetry = Telemetry()
            _run_rmt(small_rmt_config, telemetry)
            streams.append(
                [
                    (e.seq, e.name, e.component, round(e.time_s, 15))
                    for e in telemetry.trace
                ]
            )
        assert streams[0] == streams[1]


class TestRunner:
    def test_run_trace_writes_valid_chrome_json(self, tmp_path):
        from repro.telemetry.runner import run_trace

        out = tmp_path / "trace.json"
        run = run_trace("mergejoin", out=out)
        assert run.path == out
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i", "C"}
        # Counter tracks are the monitor's series, under the section.
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["cat"] for e in counters} == {"monitor"}
        assert {e["pid"] for e in counters} == {"adcp-mergejoin"}
        section = run.sections[0]
        assert len(counters) == len(section.telemetry.monitor) * len(
            section.telemetry.monitor.names
        )
        summary = run.summary()
        assert summary["workload"] == "mergejoin"
        assert summary["sections"][0]["events_emitted"] > 0

    def test_run_trace_unknown_workload(self):
        from repro.telemetry.runner import run_trace

        with pytest.raises(ConfigError, match="unknown trace workload"):
            run_trace("bogus")
