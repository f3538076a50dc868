"""Tests for a run's sampled metrics: the resource monitor's clock-grid
series and the stats counters reported beside them."""

from __future__ import annotations

import pytest

from repro.apps import ParameterServerApp
from repro.errors import ConfigError
from repro.rmt.switch import RMTSwitch
from repro.telemetry import (
    ResourceMonitor,
    RunProfile,
    Telemetry,
    monitor_littles_checks,
    text_report,
)


class TestSampling:
    def test_snapshot_includes_counters_and_gauges(self, small_rmt_config):
        """The end-of-run report lists every stats counter and every
        monitored series, each at its value when the run ended."""
        monitor = ResourceMonitor()
        telemetry = Telemetry(monitor=monitor)
        app = ParameterServerApp([0, 1, 4, 5], 16, elements_per_packet=1)
        switch = RMTSwitch(small_rmt_config, app, telemetry=telemetry)
        result = switch.run(app.workload(small_rmt_config.port_speed_bps))
        assert monitor.times_s[-1] == result.duration_s
        assert result.counters and monitor.names
        final = dict(result.counters)
        final.update(
            (name, monitor.column(name)[-1]) for name in monitor.names
        )
        lines = text_report(telemetry.trace, monitor, counters=result.counters)
        reported = {
            name: float(value)
            for name, value in (line.split() for line in lines[-len(final):])
        }
        assert reported == pytest.approx(final, rel=1e-5)

    def test_series_accumulates(self):
        monitor = ResourceMonitor()
        monitor.probe("x", lambda now_s: 1.0)
        monitor.sample(1.0)
        monitor.sample(2.0)
        assert monitor.times_s == [1.0, 2.0]
        assert len(monitor) == 2
        assert monitor.column("x") == [1.0, 1.0]

    def test_gauge_sees_sample_time(self):
        monitor = ResourceMonitor()
        monitor.probe("g", lambda now_s: now_s * 2)
        monitor.sample(3.0)
        assert monitor.column("g")[-1] == 6.0

    def test_empty_gauge_name_rejected(self):
        monitor = ResourceMonitor()
        with pytest.raises(ConfigError, match="non-empty"):
            monitor.probe("", lambda now_s: 0.0)
        assert monitor.names == []


class TestQueries:
    def _monitor(self) -> ResourceMonitor:
        monitor = ResourceMonitor()
        monitor.probe("adcp.tm1.occupancy", lambda now_s: 2.0)
        monitor.probe("adcp.tm2.occupancy", lambda now_s: now_s)
        return monitor

    def test_timeseries(self):
        monitor = self._monitor()
        monitor.sample(1.0)
        monitor.sample(2.0)
        assert monitor.series("adcp.tm1.occupancy") == [(1.0, 2.0), (2.0, 2.0)]
        assert monitor.series("adcp.tm2.occupancy") == [(1.0, 1.0), (2.0, 2.0)]

    def test_latest_unknown_is_zero(self):
        """A TM series the monitor has not sampled yet reads zero
        observed occupancy in the Little's-law check."""
        profile = RunProfile("tm1")
        profile.residencies["adcp.tm1"] = [3e-9 - 1e-9]  # admit -> release
        monitor = self._monitor()
        (check,) = monitor_littles_checks(profile, monitor, duration_s=4e-9)
        assert check.component == "adcp.tm1"
        assert check.observed_occupancy == 0.0
        assert check.predicted_occupancy == pytest.approx(0.5)


class TestPeriodicSampler:
    def test_samples_on_regular_grid(self):
        monitor = ResourceMonitor(interval_ns=1e9)  # a 1 s grid
        monitor(0.5)  # not yet
        assert len(monitor) == 0
        monitor(2.7)  # crosses 1.0 and 2.0
        assert monitor.times_s == [1.0, 2.0]
        monitor(3.0)  # exactly on the boundary
        assert monitor.times_s == [1.0, 2.0, 3.0]
        assert monitor.next_deadline_s() == 4.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError):
            ResourceMonitor(interval_ns=-50.0)
