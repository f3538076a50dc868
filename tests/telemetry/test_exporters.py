"""Tests for the Chrome trace and text exporters (repro.telemetry.exporters)."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    Category,
    ResourceMonitor,
    TraceRecorder,
    chrome_trace_events,
    text_report,
    to_chrome_trace,
    write_chrome_trace,
)


def _recorder() -> TraceRecorder:
    rec = TraceRecorder()
    rec.emit(
        Category.PIPELINE,
        "pipeline.service",
        1e-9,
        component="rmt.ingress0",
        packet_id=7,
        duration_s=2e-9,
        verdict="forward",
    )
    rec.emit(
        Category.RECIRC,
        "packet.recirculated",
        5e-9,
        component="rmt",
        packet_id=7,
    )
    return rec


class TestChromeTrace:
    def test_span_event_shape(self):
        span = chrome_trace_events(_recorder())[0]
        assert span["ph"] == "X"
        assert span["name"] == "pipeline.service"
        assert span["pid"] == "rmt"
        assert span["tid"] == "ingress0"
        assert span["ts"] == pytest.approx(1e-3)  # 1 ns in µs
        assert span["dur"] == pytest.approx(2e-3)
        assert span["args"]["packet_id"] == 7
        assert span["args"]["verdict"] == "forward"

    def test_instant_event_shape(self):
        instant = chrome_trace_events(_recorder())[1]
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert "dur" not in instant

    def test_pid_override(self):
        events = chrome_trace_events(_recorder(), pid="combined")
        assert {e["pid"] for e in events} == {"combined"}

    def test_counter_tracks_from_metrics(self, tmp_path):
        """Sampled metrics reach the trace file as the monitor's counter
        tracks, beside the recorder's events."""
        monitor = ResourceMonitor()
        monitor.probe("rmt.tm.occupancy", lambda now_s: 3.0)
        monitor.sample(1e-9)
        events = chrome_trace_events(_recorder())
        events.extend(monitor.chrome_counter_events())
        path = write_chrome_trace(tmp_path / "t.json", events)
        loaded = json.loads(path.read_text())["traceEvents"]
        counters = [e for e in loaded if e["ph"] == "C"]
        assert len(loaded) == 3
        assert len(counters) == 1
        assert counters[0]["name"] == "rmt.tm.occupancy"
        assert counters[0]["pid"] == "rmt"
        assert counters[0]["ts"] == pytest.approx(1e-3)  # 1 ns in µs
        assert counters[0]["args"]["value"] == 3.0

    def test_document_envelope(self):
        doc = to_chrome_trace(_recorder())
        assert doc["displayTimeUnit"] == "ns"
        assert len(doc["traceEvents"]) == 2

    def test_write_round_trips(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "t.json", to_chrome_trace(_recorder())
        )
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2

    def test_write_wraps_bare_list(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "t.json", chrome_trace_events(_recorder())
        )
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded


class TestTextReport:
    def test_report_mentions_counts(self):
        text = "\n".join(text_report(_recorder(), title="unit"))
        assert "unit" in text
        assert "pipeline.service" in text
        assert "2 emitted" in text

    def test_report_includes_latest_snapshot(self):
        """The report ends with the final value of every counter and of
        every monitored series."""
        monitor = ResourceMonitor()
        monitor.probe("sw.occupancy", lambda now_s: 4.0)
        monitor.sample(1e-9)
        monitor.sample(2e-9)
        lines = text_report(
            TraceRecorder(), monitor, counters={"sw.delivered": 3.0}
        )
        assert "  samples: 2 (1..2 ns)" in lines
        assert lines[-2:] == [
            f"    {'sw.delivered':<40} {3.0:>12g}",
            f"    {'sw.occupancy':<40} {4.0:>12g}",
        ]
