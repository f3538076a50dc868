"""Characterization of the switches' full trace streams.

Each scenario runs one switch with ``full`` telemetry and hashes every
field of every recorded :class:`~repro.telemetry.events.TraceEvent`
(sequence, time, category, name, component, severity, packet id,
duration, args) into one sha256.  The constants pin the exact event
stream, so any change to what a switch does, in what order, at what
simulated time, shows up here even when the end-of-run counters agree.

Packet ids are process-global, so they are rebased to the run's
smallest id before hashing (the ``packet_id`` field and the
``parent_id`` a replicated copy carries).  Floats are hashed through
``float.hex``; args keep their emission order.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.adcp.config import ADCPConfig
from repro.adcp.switch import ADCPSwitch
from repro.apps import ParameterServerApp, SortMergeJoinApp
from repro.net.traffic import make_coflow_packet
from repro.rmt.config import RMTConfig, StateMode
from repro.rmt.switch import RMTSwitch
from repro.telemetry import Telemetry
from repro.units import GBPS


def _rmt_config(**overrides) -> RMTConfig:
    config = RMTConfig(
        num_ports=8,
        pipelines=2,
        port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0,
        frequency_hz=1.25e9,
    )
    return dataclasses.replace(config, **overrides)


def _adcp_config() -> ADCPConfig:
    return ADCPConfig(
        num_ports=8,
        port_speed_bps=100 * GBPS,
        demux_factor=2,
        central_pipelines=4,
    )


def _value(value):
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _digest(trace) -> str:
    """sha256 over every field of every recorded event, ids rebased."""
    events = list(trace)
    ids = [e.packet_id for e in events if e.packet_id is not None]
    base = min(ids) if ids else 0
    sha = hashlib.sha256()
    for e in events:
        fields = (
            e.seq,
            e.time_s.hex(),
            e.category.value,
            e.name,
            e.component,
            int(e.severity),
            None if e.packet_id is None else e.packet_id - base,
            None if e.duration_s is None else e.duration_s.hex(),
            tuple(
                (k, v - base if k == "parent_id" else _value(v))
                for k, v in e.args.items()
            ),
        )
        sha.update(repr(fields).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _paramserver_rmt(state_mode):
    config = _rmt_config(state_mode=state_mode)
    app = ParameterServerApp([0, 1, 4, 5], 32, elements_per_packet=1)
    telemetry = Telemetry.at_level("full")
    result = RMTSwitch(config, app, telemetry=telemetry).run(
        app.workload(config.port_speed_bps)
    )
    assert app.collect_results(result.delivered) == app.expected_result()
    return telemetry, result


def run_rmt_egress_pin():
    return _paramserver_rmt(StateMode.EGRESS_PIN)


def run_rmt_recirculate():
    return _paramserver_rmt(StateMode.RECIRCULATE)


def run_adcp_paramserver():
    config = _adcp_config()
    app = ParameterServerApp([0, 1, 4, 5], 64, elements_per_packet=16)
    telemetry = Telemetry.at_level("full")
    result = ADCPSwitch(config, app, telemetry=telemetry).run(
        app.workload(config.port_speed_bps)
    )
    assert app.collect_results(result.delivered) == app.expected_result()
    return telemetry, result


def run_adcp_mergejoin():
    config = _adcp_config()
    app = SortMergeJoinApp(left_port=0, right_port=1, output_port=7)
    telemetry = Telemetry.at_level("full")
    switch = ADCPSwitch(
        config, app, ordered_flows=app.ordered_flows(), telemetry=telemetry
    )
    left = [(1, 10), (2, 20), (4, 40), (4, 41), (5, 50), (9, 90)]
    right = [(2, 200), (3, 300), (4, 400), (5, 500), (5, 501), (8, 800)]
    result = switch.run(app.workload(config.port_speed_bps, left, right))
    assert app.collect_matches(result.delivered) == {
        (2, 20, 200), (4, 40, 400), (4, 41, 400),
        (5, 50, 500), (5, 50, 501),
    }
    return telemetry, result


def _multicast_and_no_route(make_switch):
    """One multicast packet to three ports and one packet with no route."""
    telemetry = Telemetry.at_level("full")
    switch = make_switch(telemetry)
    multicast = make_coflow_packet(1, 0, 0, [(1, 1)])
    multicast.meta.ingress_port = 0
    multicast.meta.egress_ports = (2, 5, 7)
    unrouted = make_coflow_packet(1, 0, 1, [(2, 2)])
    unrouted.meta.ingress_port = 1
    result = switch.run([(0.0, multicast), (1e-9, unrouted)])
    assert sorted(p.meta.egress_port for p in result.delivered) == [2, 5, 7]
    assert [p.meta.drop_reason for p in result.dropped] == ["no_route"]
    return telemetry, result


def run_rmt_multicast_no_route():
    return _multicast_and_no_route(
        lambda telemetry: RMTSwitch(_rmt_config(), telemetry=telemetry)
    )


def run_adcp_multicast_no_route():
    return _multicast_and_no_route(
        lambda telemetry: ADCPSwitch(_adcp_config(), telemetry=telemetry)
    )


#: ``scenario -> (runner, recirculations, sha256 of the trace stream)``.
SCENARIOS = {
    "rmt-egress-pin": (
        run_rmt_egress_pin,
        32,
        "f41c1aa9a23179ba16721a96ad68170c77a874dafb1948a6b94cd5dd6738f741",
    ),
    "rmt-recirculate": (
        run_rmt_recirculate,
        64,
        "d7861fb28e82bfa2c077b6a9ee6e60a57de8f65f33a50e7ba5d8b62415531de5",
    ),
    "adcp-paramserver": (
        run_adcp_paramserver,
        0,
        "4d37b44958fc0d21ae9bf83f8f920fde283a4604997a3c66353d7a495bcc7cf1",
    ),
    "adcp-mergejoin": (
        run_adcp_mergejoin,
        0,
        "97ff3964b9b37b71beae9fcfc8d398d3ad717ea5088a620a27f5a22741b59b2d",
    ),
    "rmt-multicast-no-route": (
        run_rmt_multicast_no_route,
        0,
        "dd703e8c2e086791d55309aa0bd7d87cf502bfd3e6ab56350a95fdeb9d43b0ac",
    ),
    "adcp-multicast-no-route": (
        run_adcp_multicast_no_route,
        0,
        "e3781cccb98c48feb99ff743086b830620832269a7efaef0f6bce289fd78d2e8",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_trace_stream_digest(scenario):
    runner, recirculations, expected = SCENARIOS[scenario]
    telemetry, result = runner()
    trace = telemetry.trace
    assert trace.overwritten == 0
    assert result.recirculated_packets == recirculations
    assert _digest(trace) == expected, (
        f"{scenario}: the switch's trace stream changed"
    )


def test_mergejoin_scenario_covers_the_merge_front_end():
    telemetry, _ = run_adcp_mergejoin()
    names = telemetry.trace.counts_by_name()
    for name in ("merge.offer", "merge.release", "merge.flush"):
        assert names.get(name, 0) > 0, name
