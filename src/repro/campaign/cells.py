"""Cell targets: the functions a campaign schedules, one call per cell.

A target takes one validated parameter table (always including a
resolved ``seed``) and returns a **run ledger** document
(:func:`repro.telemetry.ledger.build_ledger`): series summaries per
section, and the run's own ``totals`` that the campaign's axis tables
read — so every cell's output plugs straight into ``repro diff`` and the
campaign aggregator.

Targets must be:

- **Deterministic.**  The same parameters produce byte-identical
  ledgers; all randomness flows from ``params["seed"]`` through
  :mod:`repro.sim.rng`.
- **Self-contained.**  They import what they need lazily and touch no
  global state, because the worker pool may run them in forked or
  spawned subprocesses.

The ``_flaky`` and ``_echo`` targets are test scaffolding for the pool
and runner suites (crash/retry/resume paths need a cell that misbehaves
on demand); they are registered but undocumented in the CLI.
"""

from __future__ import annotations

from ..errors import ConfigError


def _take(target: str, params: dict, schema: dict) -> dict:
    """Validate ``params`` against ``schema`` (key -> (types, default)).

    ``default is _REQUIRED`` marks a mandatory key.  Unknown keys are
    rejected up front so a typoed axis fails before any cell runs.
    """
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(
            f"cell target {target!r} got unknown parameters "
            f"{', '.join(unknown)}; accepted: {', '.join(sorted(schema))}"
        )
    taken = {}
    for key, (types, default) in schema.items():
        if key in params:
            value = params[key]
            if isinstance(value, bool) and bool not in (
                types if isinstance(types, tuple) else (types,)
            ):
                raise ConfigError(
                    f"cell target {target!r} parameter {key!r} must be "
                    f"numeric, got a bool"
                )
            if not isinstance(value, types):
                raise ConfigError(
                    f"cell target {target!r} parameter {key!r} has "
                    f"invalid value {value!r}"
                )
            taken[key] = value
        elif default is _REQUIRED:
            raise ConfigError(
                f"cell target {target!r} requires parameter {key!r}"
            )
        else:
            taken[key] = default
    return taken


_REQUIRED = object()


def _monitored_telemetry():
    """A hub carrying only the resource monitor: cells skip event
    tracing (the aggregate compares series summaries, not timelines)."""
    from ..telemetry import Telemetry
    from ..telemetry.monitor import DEFAULT_INTERVAL_NS

    return Telemetry.at_level("counters", interval_ns=DEFAULT_INTERVAL_NS)


def _switch_ledger(workload: str, params: dict, telemetry, result) -> dict:
    """The ledger of one monitored ADCP run: its one section, and the
    section's own numbers as the cell's totals."""
    from ..telemetry.ledger import SwitchSection, build_ledger

    section = SwitchSection("adcp", telemetry, result)
    return build_ledger(
        workload,
        {**params, "interval_ns": telemetry.monitor.interval_ns},
        [section.to_json()],
        totals=section.totals(),
    )


# --- real targets ----------------------------------------------------------------


def _cell_design_space(params: dict) -> dict:
    """One point of the paper's ADCP geometry sweep.

    Runs the pinned parameter-server aggregation (the Table 1 ML row) on
    an 8-port ADCP built from the cell's geometry: ``array_width`` (8 or
    16 in the paper), ``demux_factor`` (Table 3), ``port_speed_gbps``
    (Table 2's rows).  Elements per packet track the array width, since
    that is the whole point of wide arrays.
    """
    p = _take(
        "design-space",
        params,
        {
            "array_width": (int, _REQUIRED),
            "demux_factor": (int, _REQUIRED),
            "port_speed_gbps": ((int, float), _REQUIRED),
            "seed": (int, _REQUIRED),
            "num_ports": (int, 8),
            "central_pipelines": (int, 4),
            "vector": (int, 512),
        },
    )
    from ..adcp.config import ADCPConfig
    from ..adcp.switch import ADCPSwitch
    from ..apps import ParameterServerApp
    from ..units import GBPS

    config = ADCPConfig(
        num_ports=p["num_ports"],
        port_speed_bps=p["port_speed_gbps"] * GBPS,
        demux_factor=p["demux_factor"],
        central_pipelines=p["central_pipelines"],
        array_width=p["array_width"],
    )
    telemetry = _monitored_telemetry()
    app = ParameterServerApp(
        [0, 1, 4, 5],
        p["vector"],
        elements_per_packet=min(16, p["array_width"]),
    )
    switch = ADCPSwitch(config, app, telemetry=telemetry)
    result = switch.run(app.workload(config.port_speed_bps))
    return _switch_ledger("design-space", p, telemetry, result)


def _cell_coflow_mix(params: dict) -> dict:
    """One Table 1 application class on the matched 8-port ADCP.

    ``app`` picks the workload; stochastic generators (graph-mining
    frontiers) draw from ``make_rng(seed)``, deterministic ones accept
    the seed for interface uniformity.
    """
    p = _take(
        "coflow-mix",
        params,
        {
            "app": (str, _REQUIRED),
            "seed": (int, _REQUIRED),
            "scale": (int, 96),
        },
    )
    from ..adcp.config import ADCPConfig
    from ..adcp.switch import ADCPSwitch
    from ..sim.rng import make_rng
    from ..units import GBPS

    config = ADCPConfig(
        num_ports=8,
        port_speed_bps=100 * GBPS,
        demux_factor=2,
        central_pipelines=4,
    )
    scale = p["scale"]
    seed = p["seed"] % (2**31)
    app_name = p["app"]
    telemetry = _monitored_telemetry()
    if app_name == "paramserver":
        from ..apps import ParameterServerApp

        app = ParameterServerApp(
            [0, 1, 4, 5], scale * 2, elements_per_packet=16
        )
        switch = ADCPSwitch(config, app, telemetry=telemetry)
        result = switch.run(app.workload(config.port_speed_bps))
    elif app_name == "dbshuffle":
        from ..apps import DBShuffleApp

        app = DBShuffleApp([0, 1], [4, 5], groups=16, elements_per_packet=16)
        switch = ADCPSwitch(config, app, telemetry=telemetry)
        result = switch.run(
            app.workload(config.port_speed_bps, elements_per_mapper=scale)
        )
    elif app_name == "graphmining":
        from ..apps import GraphMiningApp

        app = GraphMiningApp([0, 1, 4, 5], 512, elements_per_packet=16)
        switch = ADCPSwitch(config, app, telemetry=telemetry)
        result = switch.run(
            app.superstep_workload(
                config.port_speed_bps, scale, 2.0, make_rng(seed)
            )
        )
    elif app_name == "groupcomm":
        from ..apps import GroupCommApp

        app = GroupCommApp({1: [2, 4, 6]}, elements_per_packet=16)
        switch = ADCPSwitch(config, app, telemetry=telemetry)
        result = switch.run(
            app.workload(
                config.port_speed_bps,
                senders={0: 1},
                transfers_per_sender=max(1, scale // 8),
            )
        )
    else:
        raise ConfigError(
            f"coflow-mix app must be one of paramserver, dbshuffle, "
            f"graphmining, groupcomm; got {app_name!r}"
        )
    return _switch_ledger(f"coflow-mix:{app_name}", p, telemetry, result)


def _cell_fabric(params: dict) -> dict:
    """One multi-switch fabric run (topology x placement x routing).

    Wraps :func:`repro.fabric.run_fabric`: coflows traverse a fat-tree
    or leaf-spine of RMT/ADCP switches, and the cell's ledger carries
    one section per switch plus the fabric section (links, per-coflow
    CCT), and the run's totals (``max_cct_s`` among them) — so a
    placement sweep's axis tables compare coflow completion time
    directly.
    """
    p = _take(
        "fabric",
        params,
        {
            "topology": (str, "leaf-spine-2x2"),
            "workload": (str, "fabric-allreduce"),
            "target": (str, "adcp"),
            "placement": (str, "ingress"),
            "routing": (str, "ecmp"),
            "coflows": (int, 2),
            "vector": (int, 64),
            "load": ((int, float), 1.0),
            "seed": (int, _REQUIRED),
        },
    )
    from ..fabric import run_fabric

    run = run_fabric(
        p["topology"],
        p["workload"],
        target=p["target"],
        placement=p["placement"],
        routing=p["routing"],
        coflows=p["coflows"],
        vector=p["vector"],
        load=float(p["load"]),
        seed=p["seed"],
    )
    return run.ledger()


def _cell_stateful(params: dict) -> dict:
    """One stateful-primitive run (workload x flow count x skew x target).

    Wraps :func:`repro.stateful.run_stateful`: the cell's ledger is the
    stateful run's — per-target sections with admission/detection
    verdicts and state-access counts plus the compile-divergence
    section — so a flows x skew x target sweep shows how access
    concentration moves the primitive quality metrics on each
    architecture.
    """
    p = _take(
        "stateful",
        params,
        {
            "workload": (str, "tokenbucket"),
            "topology": (str, "single"),
            "target": (str, "both"),
            "flows": (int, 64),
            "skew": ((int, float), None),
            "packets": (int, 400),
            "seed": (int, _REQUIRED),
        },
    )
    from ..stateful.runner import run_stateful

    skew = p["skew"]
    run = run_stateful(
        p["workload"],
        target=p["target"],
        topology=p["topology"],
        flows=p["flows"],
        # Unset, the runner picks (and records) the topology's skew.
        skew=None if skew is None else float(skew),
        packets=p["packets"],
        seed=p["seed"],
    )
    return run.ledger()


# --- test scaffolding -------------------------------------------------------------


def _cell_echo(params: dict) -> dict:
    """Deterministic no-sim cell: echoes its parameters as a ledger.

    Test scaffolding for the pool/runner/CLI suites — fast, importable
    under any multiprocessing start method, and byte-stable.
    """
    from ..telemetry.ledger import build_ledger, point

    raw = params.get("value", 0)
    value = float(raw) if isinstance(raw, (int, float)) else 0.0
    totals = {"duration_s": value, "delivered": int(value), "recirculated": 0}
    section = {
        "label": "echo",
        **totals,
        "consumed": 0,
        "samples": 1,
        "series": {"echo.value": point(value)},
        "counters": {},
    }
    return build_ledger("echo", dict(params), [section], totals=totals)


def _cell_flaky(params: dict) -> dict:
    """Misbehaving cell for crash/retry/resume tests.

    ``sentinel`` names a file; on the attempt that first creates it the
    cell misbehaves per ``mode`` (``kill-once`` SIGKILLs its own worker,
    ``fail-once`` raises, ``sleep-always`` blocks past any timeout, and
    ``ok`` never misbehaves).
    Attempts that find the sentinel already present succeed — which is
    exactly the shape of a transient infrastructure fault.
    """
    import os
    import signal
    import time
    from pathlib import Path

    sentinel = Path(params["sentinel"])
    mode = params.get("mode", "kill-once")
    first = not sentinel.exists()
    if first:
        sentinel.parent.mkdir(parents=True, exist_ok=True)
        sentinel.write_text(mode)
    if mode == "sleep-always":
        time.sleep(float(params.get("sleep_s", 30.0)))
    elif first and mode != "ok":
        if mode == "kill-once":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "fail-once":
            raise ConfigError("flaky cell: injected failure")
        else:
            raise ConfigError(f"flaky cell: unknown mode {mode!r}")
    return _cell_echo({k: v for k, v in params.items() if k == "seed"})


#: The cell-target registry: campaign specs refer to these by name.
TARGETS: dict = {
    "design-space": _cell_design_space,
    "coflow-mix": _cell_coflow_mix,
    "fabric": _cell_fabric,
    "stateful": _cell_stateful,
    "_echo": _cell_echo,
    "_flaky": _cell_flaky,
}


def run_cell(target: str, params: dict) -> dict:
    """Execute one cell in-process and return its ledger document."""
    try:
        fn = TARGETS[target]
    except KeyError:
        raise ConfigError(
            f"unknown cell target {target!r}; registered: "
            f"{', '.join(sorted(TARGETS))}"
        )
    document = fn(params)
    if not isinstance(document, dict) or "schema" not in document:
        raise ConfigError(
            f"cell target {target!r} returned a non-ledger result"
        )
    return document
