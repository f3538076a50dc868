"""The five benchmark workloads, built only from public constructors and runners.

Each function runs one workload end to end, verifies its outputs, and
returns its simulated outputs (``checks``); the sha256 of their
canonical JSON is the run's ``sim_digest``.  A wrong output raises
:class:`CheckFailed`.  Keyword arguments are the workload's size, so
tests can run the same code small; the defaults are the benchmark sizes,
chosen so ``Simulator.run`` takes 1.5-3 s on a 2-core x86 host.
"""

from __future__ import annotations

from repro import ADCPConfig, ADCPSwitch, RMTConfig, RMTSwitch
from repro.apps import ParameterServerApp
from repro.fabric import run_fabric
from repro.net.headers import OP_REPLY, OP_RESULT
from repro.serve.runner import run_serve
from repro.stateful.workloads import build_single
from repro.units import GBPS

#: Straddles both RMT pipelines, so egress pinning has to recirculate.
WORKER_PORTS = [0, 1, 4, 5]


class CheckFailed(Exception):
    """A workload produced a wrong output."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rmt_config() -> RMTConfig:
    return RMTConfig(
        num_ports=8,
        pipelines=2,
        port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0,
        frequency_hz=1.25e9,
    )


def _switch_checks(result) -> dict:
    return {
        "duration_s": result.duration_s,
        "delivered": len(result.delivered),
        "dropped": len(result.dropped),
        "recirculated": result.recirculated_packets,
    }


def _aggregate(switch_cls, config, vector: int, elements_per_packet: int) -> dict:
    app = ParameterServerApp(
        WORKER_PORTS, vector, elements_per_packet=elements_per_packet
    )
    result = switch_cls(config, app).run(app.workload(config.port_speed_bps))
    _check(
        app.collect_results(result.delivered) == app.expected_result(),
        "aggregate differs from expected_result()",
    )
    return _switch_checks(result)


def switch_rmt(seed: int, vector: int = 8192) -> dict:
    """RMT parameter server, scalar packets, egress-pinned state."""
    del seed  # no random input
    return _aggregate(RMTSwitch, _rmt_config(), vector, 1)


def switch_adcp(seed: int, vector: int = 98304) -> dict:
    """ADCP parameter server, 16-element array packets."""
    del seed  # no random input
    config = ADCPConfig(
        num_ports=8,
        port_speed_bps=100 * GBPS,
        demux_factor=2,
        central_pipelines=4,
    )
    return _aggregate(ADCPSwitch, config, vector, 16)


def stateful_keycache(seed: int, packets: int = 32000, flows: int = 1024) -> dict:
    """Replicated key cache (zipf GETs, 1-in-8 PUTs) on the RMT switch."""
    config = _rmt_config()
    stream = build_single(
        "keycache",
        flows=flows,
        skew=1.2,
        packets=packets,
        seed=seed,
        port_speed_bps=config.port_speed_bps,
    )
    app = stream.app
    result = RMTSwitch(config, app).run(stream.arrivals(config.port_speed_bps))
    _check(
        app.hits + app.misses + app.puts == packets,
        f"hits+misses+puts {app.hits + app.misses + app.puts} != {packets} requests",
    )
    _check(not result.dropped, f"{len(result.dropped)} packets dropped")
    opcodes = [p.header("coflow")["opcode"] for p in result.delivered]
    _check(
        len(opcodes) == packets
        and opcodes.count(OP_REPLY) == app.hits
        and opcodes.count(OP_RESULT) == app.misses + app.puts,
        "not every request was answered exactly once",
    )
    return {
        **_switch_checks(result),
        "hit_rate": app.hit_rate,
        "hits": app.hits,
        "misses": app.misses,
        "puts": app.puts,
        "merge_rounds": app.shared.merge_rounds,
        "stale_reads": app.shared.stale_reads,
    }


def fabric_shuffle(seed: int, coflows: int = 4, vector: int = 64) -> dict:
    """Stateless shuffle across a k=4 fat tree of RMT switches."""
    run = run_fabric(
        "fat-tree-k4",
        "fabric-shuffle",
        target="rmt",
        coflows=coflows,
        vector=vector,
        seed=seed,
        make_telemetry=lambda: None,
    )
    dropped = sum(len(section.result.dropped) for section in run.sections)
    _check(dropped == 0, f"{dropped} packets dropped")
    _check(
        run.delivered_to_hosts == run.injected,
        f"{run.delivered_to_hosts} of {run.injected} packets reached hosts",
    )
    return {
        "duration_s": run.duration_s,
        "delivered": run.delivered_to_hosts,
        "dropped": dropped,
        "recirculated": run.recirculated,
        "max_cct_s": run.max_cct_s,
        "transit_packets": run.transit_packets,
    }


def serve_fattree(seed: int, duration_ns: float = 6000.0) -> dict:
    """Open-loop all-reduce serving on a k=4 fat tree of ADCP switches,
    with rolling windows, per-switch monitors and 1-in-16 spans."""
    run = run_serve(
        "fat-tree-k4",
        "fabric-allreduce",
        target="adcp",
        duration_ns=duration_ns,
        window_ns=500.0,
        sample=16,
        seed=seed,
    )
    _check(run.dropped == 0, f"{run.dropped} packets dropped")
    p99s = [w["p99_latency_ns"] for w in run.windows if w["p99_latency_ns"] is not None]
    _check(bool(p99s), "no window recorded a latency")
    return {
        "duration_s": run.duration_s,
        "delivered": run.delivered_to_hosts,
        "dropped": run.dropped,
        "recirculated": sum(s.result.recirculated_packets for s in run.sections),
        "worst_window_p99_ns": max(p99s),
        "windows": len(run.windows),
        "coflows_completed": run.coflows_completed,
        "span_records": len(run.spans.records),
    }


#: Workload name (as listed in ``run.WORKLOADS``) -> function.
WORKLOADS = {
    "switch-rmt": switch_rmt,
    "switch-adcp": switch_adcp,
    "stateful-keycache": stateful_keycache,
    "fabric-shuffle": fabric_shuffle,
    "serve-fattree": serve_fattree,
}

#: Sizes small enough for the self-tests (well under a second each).
TINY = {
    "switch-rmt": {"vector": 64},
    "switch-adcp": {"vector": 512},
    "stateful-keycache": {"packets": 400, "flows": 64},
    "fabric-shuffle": {"coflows": 1, "vector": 8},
    "serve-fattree": {"duration_ns": 1000.0},
}
