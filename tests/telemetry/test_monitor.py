"""Resource-monitor tests: grid sampling, probe wiring, determinism."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp
from repro.errors import ConfigError
from repro.rmt.config import StateMode
from repro.rmt.switch import RMTSwitch
from repro.sim.event import Simulator
from repro.telemetry import (
    ResourceMonitor,
    Telemetry,
    monitor_littles_checks,
)
from repro.telemetry.runner import run_monitor


def _monitored_rmt(config, interval_ns=50.0, **app_kwargs):
    monitor = ResourceMonitor(interval_ns=interval_ns)
    telemetry = Telemetry(monitor=monitor)
    app = ParameterServerApp(
        [0, 1, 4, 5], app_kwargs.pop("rounds", 64), elements_per_packet=1
    )
    switch = RMTSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    return monitor, switch, result


def _monitored_adcp(config, interval_ns=50.0):
    monitor = ResourceMonitor(interval_ns=interval_ns)
    telemetry = Telemetry(monitor=monitor)
    app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
    switch = ADCPSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    return monitor, switch, result


class TestGridSampling:
    def test_samples_land_on_fixed_grid(self):
        """One sample per crossed boundary, at exactly the grid times."""
        monitor = ResourceMonitor(interval_ns=10.0)
        ticks = []
        monitor.probe("x", lambda now_s: float(len(ticks)))
        monitor(5e-9)  # before first boundary: nothing
        assert len(monitor) == 0
        monitor(25e-9)  # crosses 10 ns and 20 ns
        assert [round(t * 1e9) for t in monitor.times_s] == [10, 20]
        monitor(1e-7)  # crosses 30..100 ns
        assert len(monitor) == 10
        assert monitor.times_s == pytest.approx(
            [i * 1e-8 for i in range(1, 11)]
        )

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigError):
            ResourceMonitor(interval_ns=0)

    @pytest.mark.parametrize("interval_ns", [math.nan, math.inf])
    def test_interval_must_be_finite(self, interval_ns):
        with pytest.raises(ConfigError, match="finite"):
            ResourceMonitor(interval_ns=interval_ns)

    def test_probe_registration_frozen_after_first_sample(self):
        monitor = ResourceMonitor()
        monitor.probe("a", lambda now_s: 1.0)
        monitor.sample(1e-9)
        with pytest.raises(ConfigError, match="already"):
            monitor.probe("b", lambda now_s: 2.0)

    def test_duplicate_and_empty_probe_names_rejected(self):
        monitor = ResourceMonitor()
        monitor.probe("a", lambda now_s: 1.0)
        with pytest.raises(ConfigError, match="duplicate"):
            monitor.probe("a", lambda now_s: 2.0)
        with pytest.raises(ConfigError, match="non-empty"):
            monitor.probe("", lambda now_s: 0.0)

    def test_finish_guarantees_tail_sample(self):
        monitor = ResourceMonitor(interval_ns=1000.0)
        monitor.probe("x", lambda now_s: 7.0)
        monitor.finish(3e-9)  # run far shorter than the interval
        assert len(monitor) == 1
        assert monitor.column("x") == [7.0]

    def test_unknown_series_rejected(self):
        monitor = ResourceMonitor()
        monitor.probe("x", lambda now_s: 0.0)
        monitor.sample(1e-9)
        with pytest.raises(ConfigError, match="no monitored series"):
            monitor.column("y")


class TestFastPath:
    def test_no_monitor_leaves_kernel_probe_none(self, small_rmt_config):
        """The monitor-off hot path is the kernel's single ``is None``
        check: nothing is installed on the clock."""
        switch = RMTSwitch(small_rmt_config)
        assert switch._sim.time_probe is None

    def test_chained_probes_both_fire(self):
        sim = Simulator()
        seen: list[tuple[str, float]] = []
        sim.add_time_probe(lambda t: seen.append(("a", t)))
        sim.add_time_probe(lambda t: seen.append(("b", t)))
        sim.time_probe(4.2)
        assert seen == [("a", 4.2), ("b", 4.2)]

    def test_monitor_does_not_perturb_results(self, small_rmt_config):
        _, _, bare = _monitored_rmt(small_rmt_config, interval_ns=1e9)
        app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=1)
        switch = RMTSwitch(small_rmt_config, app)
        plain = switch.run(app.workload(small_rmt_config.port_speed_bps))
        assert bare.duration_s == plain.duration_s
        assert bare.recirculated_packets == plain.recirculated_packets
        assert len(bare.delivered) == len(plain.delivered)


class TestSwitchProbes:
    def test_rmt_series_under_pressure(self, small_rmt_config):
        monitor, switch, result = _monitored_rmt(small_rmt_config)
        names = monitor.names
        assert f"{switch.tm.path}.occupancy" in names
        assert f"{switch.path}.recirculations" in names
        assert f"{switch.path}.recirc_backlog_s" in names
        assert any(".state_accesses" in n for n in names)
        assert any(".tx0.utilization" in n for n in names)
        # The default egress-pin mode recirculates, and the TM queues:
        # both series must be visibly nonzero.
        assert result.recirculated_packets > 0
        assert max(monitor.column(f"{switch.path}.recirculations")) > 0
        assert max(monitor.column(f"{switch.tm.path}.occupancy")) > 0

    def test_adcp_recirculation_series_identically_zero(
        self, small_adcp_config
    ):
        """The architectural claim, machine-checked: ADCP programs never
        recirculate, so the series is all zeros — not merely absent."""
        monitor, switch, result = _monitored_adcp(small_adcp_config)
        column = monitor.column(f"{switch.path}.recirculations")
        assert column and all(v == 0.0 for v in column)
        assert result.recirculated_packets == 0
        # Both TMs and the per-bank central-state series are live.
        assert max(monitor.column(f"{switch.tm1.path}.occupancy")) > 0
        assert any(".bank" in n for n in monitor.names)

    def test_one_switch_per_monitor(self, small_rmt_config):
        monitor = ResourceMonitor()
        RMTSwitch(small_rmt_config, telemetry=Telemetry(monitor=monitor))
        with pytest.raises(ConfigError, match="one switch"):
            RMTSwitch(
                small_rmt_config, telemetry=Telemetry(monitor=monitor)
            )

    def test_summaries_are_column_digests(self, small_rmt_config):
        monitor, switch, _ = _monitored_rmt(small_rmt_config)
        name = f"{switch.tm.path}.occupancy"
        column = monitor.column(name)
        summary = monitor.summaries()[name]
        assert summary.samples == len(column)
        assert summary.peak == max(column)
        assert summary.last == column[-1]
        assert summary.mean == pytest.approx(
            math.fsum(column) / len(column)
        )
        assert summary.peak >= summary.p99 >= 0.0


class TestDeterminism:
    def test_monitor_runs_byte_identical(self, tmp_path):
        """Two seeded runs of the same workload write byte-identical
        time-series CSVs (the acceptance bar for clock-driven sampling)."""
        paths = []
        for tag in ("a", "b"):
            run = run_monitor(
                "recirculate",
                ledger_out=tmp_path / f"ledger_{tag}.json",
                csv_out=tmp_path / f"mon_{tag}.csv",
            )
            paths.append(run.csv_paths)
        assert len(paths[0]) == len(paths[1]) == 1
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()

    def test_ledger_series_reproducible(self, tmp_path):
        runs = [
            run_monitor(
                "mltrain", ledger_out=tmp_path / f"l{i}.json"
            ).ledger
            for i in range(2)
        ]
        for run in runs:
            run.pop("git_sha")
        assert runs[0] == runs[1]


class TestCrossChecks:
    def test_littles_law_holds_on_steady_workload(self, small_rmt_config):
        """λW from the event spans ≈ the mean of the clock-grid occupancy
        samples — two independent instrumentation paths agreeing."""
        config = dataclasses.replace(
            small_rmt_config, state_mode=StateMode.RECIRCULATE
        )
        monitor = ResourceMonitor(interval_ns=10.0)
        telemetry = Telemetry(monitor=monitor)
        app = ParameterServerApp([0, 1, 4, 5], 128, elements_per_packet=1)
        switch = RMTSwitch(config, app, telemetry=telemetry)
        result = switch.run(app.workload(config.port_speed_bps))
        # 2.5x tolerance: λW over-counts slightly under recirculation
        # (each loop pass re-enters the TM, inflating the residency sum)
        # while grid samples lag events by up to one interval; the check
        # still catches a mis-wired probe, which is off by orders of
        # magnitude, not a factor ~2.
        checks = monitor_littles_checks(
            telemetry.trace, monitor, result.duration_s, tolerance=2.5
        )
        assert [c.component for c in checks] == [switch.tm.path]
        check = checks[0]
        assert check.predicted_occupancy > 0
        assert check.observed_occupancy > 0
        assert check.consistent, (
            f"L={check.predicted_occupancy:.2f} vs "
            f"sampled {check.observed_occupancy:.2f}"
        )


class TestExports:
    def test_csv_shape(self, small_rmt_config):
        monitor, _, _ = _monitored_rmt(small_rmt_config)
        lines = monitor.csv_lines()
        header = lines[0].split(",")
        assert header[0] == "time_ns"
        assert header[1:] == monitor.names
        assert len(lines) == len(monitor) + 1
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_chrome_counter_events_merge(self, small_rmt_config):
        monitor, _, _ = _monitored_rmt(small_rmt_config)
        events = monitor.chrome_counter_events(pid="rmt")
        assert events
        assert all(e["ph"] == "C" for e in events)
        assert all(e["pid"] == "rmt" for e in events)
        assert len(events) == len(monitor) * len(monitor.names)

    def test_monitor_chrome_writes_each_counter_track_once(self, tmp_path):
        """``monitor --chrome`` holds one counter event per series,
        sample and section: the hub runs one clock-grid sampler."""
        run = run_monitor(
            "mergejoin",
            ledger_out=tmp_path / "ledger.json",
            chrome_out=tmp_path / "trace.json",
        )
        doc = json.loads(run.chrome_path.read_text())
        keys = [
            (e["pid"], e["name"], e["ts"])
            for e in doc["traceEvents"]
            if e["ph"] == "C"
        ]
        assert len(keys) == len(set(keys))
        (section,) = run.sections
        assert len(keys) == len(section.monitor) * len(section.monitor.names)
