"""Drive the stateful workloads and emit ``repro.stateful_ledger/1``.

:func:`run_stateful` runs one workload on one or both targets — single
switch or any fabric topology — and folds the app counters, ground-truth
scoring, and the §3.2 compile divergence into a diffable ledger:

* per-target sections (``adcp:<workload>`` / ``rmt:<workload>``, or
  ``<target>:<workload>@<topo>`` in a fabric) carry state accesses,
  transition counts, admission/detection verdicts, and merge traffic as
  single-sample series with explicit direction tags on the quality
  metrics;
* one ``compile`` section sweeps keys-per-packet through the
  :mod:`repro.program` compiler on both targets over the workload's
  state tables: RMT's per-key replication factor grows with k while
  ADCP's shared-copy block usage stays flat — the paper's Table-1/§3.2
  claim, machine-checked in every ledger.

Ledger content is a pure function of (workload, params, seed): nothing
wall-clock-dependent enters it, so artifacts are byte-identical per
seed across reruns and telemetry levels (modulo ``git_sha``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..program import Compiler, TableSpec, adcp_target, rmt_target
from ..sim.rng import DEFAULT_SEED
from ..tables.mat import MatchKind
from ..telemetry.ledger import (
    STATEFUL_LEDGER_SCHEMA,
    git_sha,
    write_ledger,
)
from ..units import GBPS
from .apps import SYN_FLOOD_EFSM
from .efsm import efsm_program
from .workloads import (
    DEFAULT_SKEW,
    FABRIC_SKEW,
    FABRIC_ZIPF_WORKLOADS,
    STATEFUL_WORKLOADS,
    build_single,
)

__all__ = [
    "StatefulRun",
    "compile_divergence",
    "run_stateful",
    "single_trace_sections",
]

#: keys-per-packet sweep for the compile-divergence section (capped at
#: the ADCP target's array width, where the array path saturates).
_KPP_SWEEP = (1, 2, 4, 8, 16)
_ADCP_ARRAY_WIDTH = 16

#: ADCP packs multiple keys per packet only where the workload has a
#: multi-key packet format; events and requests stay scalar.
_ADCP_EPP = {"heavyhitter": 8}


def _point(value: float, direction: str | None = None) -> dict:
    """Single-sample series summary (same shape as the fabric ledger)."""
    value = float(value)
    summary = {
        "samples": 1,
        "mean": value,
        "peak": value,
        "p99": value,
        "last": value,
    }
    if direction is not None:
        summary["direction"] = direction
    return summary


@dataclass
class StatefulSection:
    """One ledger section plus the run objects behind it."""

    label: str
    series: dict[str, dict]
    counters: dict
    telemetry: object = None
    result: object = None

    def to_json(self) -> dict:
        doc = {
            "label": self.label,
            "series": self.series,
            "counters": self.counters,
        }
        # Hoist the standard run-ledger keys so campaign axis tables and
        # ledger diffs see stateful cells like any other section.
        if "delivered" in self.series:
            doc["delivered"] = int(self.series["delivered"]["mean"])
        if "duration_ns" in self.series:
            doc["duration_s"] = self.series["duration_ns"]["mean"] * 1e-9
        return doc


@dataclass
class StatefulRun:
    """Everything one stateful run produced."""

    workload: str
    topology: str
    targets: tuple[str, ...]
    seed: int
    params: dict
    sections: list[StatefulSection]
    ledger_path: Path | None = None
    lines: list[str] = field(default_factory=list)

    def ledger(self) -> dict:
        return {
            "schema": STATEFUL_LEDGER_SCHEMA,
            "workload": self.workload,
            "topology": self.topology,
            "seed": self.seed,
            "git_sha": git_sha(),
            "params": self.params,
            "sections": [s.to_json() for s in self.sections],
        }

    def summary(self) -> dict:
        sections = {}
        for section in self.sections:
            sections[section.label] = {
                name: summary["mean"]
                for name, summary in sorted(section.series.items())
            }
        return {
            "workload": self.workload,
            "topology": self.topology,
            "targets": list(self.targets),
            "seed": self.seed,
            "params": {
                k: v for k, v in self.params.items() if k != "targets"
            },
            "sections": sections,
            "ledger": str(self.ledger_path) if self.ledger_path else None,
        }


# --- single-switch execution ------------------------------------------------------


def _single_configs(target: str):
    if target == "adcp":
        from ..adcp.config import ADCPConfig

        return ADCPConfig(
            num_ports=8, port_speed_bps=100 * GBPS, demux_factor=2,
            central_pipelines=4,
        )
    from ..rmt.config import RMTConfig

    return RMTConfig(
        num_ports=8, pipelines=2, port_speed_bps=100 * GBPS,
        min_wire_packet_bytes=84.0, frequency_hz=1.25e9,
    )


def _run_single_target(
    workload: str,
    target: str,
    *,
    flows: int,
    skew: float,
    packets: int,
    seed: int,
    make_telemetry=None,
    spans=None,
):
    """One (workload, target) single-switch run.

    Returns ``(stream, telemetry, result)``; the stream's app holds the
    primitive counters, the result the switch-level ones.
    """
    config = _single_configs(target)
    epp = _ADCP_EPP.get(workload, 1) if target == "adcp" else 1
    stream = build_single(
        workload,
        flows=flows,
        skew=skew,
        packets=packets,
        seed=seed,
        elements_per_packet=epp,
        port_speed_bps=config.port_speed_bps,
    )
    telemetry = make_telemetry() if make_telemetry is not None else None
    if target == "adcp":
        from ..adcp.switch import ADCPSwitch

        switch = ADCPSwitch(config, stream.app, telemetry=telemetry)
    else:
        from ..rmt.switch import RMTSwitch

        switch = RMTSwitch(config, stream.app, telemetry=telemetry)
    if spans is not None:
        switch.spans = spans
    # Arrivals are generated after construction: the switch has bound the
    # app's placement, which partition-local batching consults.
    arrivals = stream.arrivals(config.port_speed_bps)
    result = switch.run(arrivals)
    return stream, telemetry, result


def single_trace_sections(
    workload: str, *, make_telemetry=None, seed: int = 0, spans=None
):
    """Both targets' single-switch runs as (label, telemetry, result)
    triples — the TRACEABLE adapter for trace/profile/monitor/spans."""
    out = []
    for target in ("adcp", "rmt"):
        stream, telemetry, result = _run_single_target(
            workload,
            target,
            flows=64,
            skew=DEFAULT_SKEW,
            packets=240,
            seed=seed,
            make_telemetry=make_telemetry,
            spans=spans,
        )
        out.append((f"{target}-{workload}", telemetry, result))
    return out


# --- metric extraction ------------------------------------------------------------


def _app_series(workload: str, app, truth: dict, duration_s: float) -> dict:
    """The per-primitive quality/state series for one app instance."""
    series: dict[str, dict] = {}
    if workload == "tokenbucket":
        bucket = app.bucket
        series["admitted"] = _point(app.admitted)
        series["rate_limited"] = _point(app.rate_limited)
        series["goodput_pps"] = _point(
            app.admitted / duration_s if duration_s > 0 else 0.0, "higher"
        )
        series["scr.admit_divergence"] = _point(bucket.admit_divergence)
        series["scr.shadow_admitted"] = _point(bucket.shadow_admitted)
        series["scr.reconciliations"] = _point(bucket.reconciliations)
        series["scr.tokens_moved"] = _point(bucket.tokens_moved)
        series["state_accesses"] = _point(app.admitted + app.rate_limited)
    elif workload == "synflood":
        engine = app.engine
        flagged = set(app.flagged_sources())
        attackers = set(truth.get("attackers", []))
        benign = truth.get("sources", engine.flows) - len(attackers)
        detected = len(flagged & attackers)
        series["detection_rate"] = _point(
            detected / len(attackers) if attackers else 0.0, "higher"
        )
        series["false_positive_rate"] = _point(
            len(flagged - attackers) / benign if benign else 0.0
        )
        series["mitigated_syns"] = _point(app.mitigated)
        series["efsm.steps"] = _point(engine.steps)
        series["efsm.unmatched"] = _point(engine.unmatched)
        series["state_accesses"] = _point(engine.state_accesses)
        for edge, count in engine.transition_counts().items():
            series[f"efsm.{edge}"] = _point(count)
    elif workload == "heavyhitter":
        promoted = set(app.promoted_keys())
        heavy = set(truth.get("heavy", []))
        found = len(promoted & heavy)
        series["detection_rate"] = _point(
            found / len(heavy) if heavy else 0.0, "higher"
        )
        series["false_positive_rate"] = _point(
            len(promoted - heavy) / len(promoted) if promoted else 0.0
        )
        series["promotions"] = _point(app.promotions)
        series["table_fill"] = _point(app.heavy.fill)
        series["mat_lookups"] = _point(app.heavy.lookups)
        series["state_accesses"] = _point(app.heavy.lookups * app.rows)
    else:  # keycache
        shared = app.shared
        series["hit_rate"] = _point(app.hit_rate, "higher")
        series["hits"] = _point(app.hits)
        series["misses"] = _point(app.misses)
        series["puts"] = _point(app.puts)
        series["stale_reads"] = _point(shared.stale_reads)
        series["merge_rounds"] = _point(shared.merge_rounds)
        series["merge_messages"] = _point(shared.merge_messages)
        series["merge_bytes"] = _point(shared.merge_bytes)
        series["state_accesses"] = _point(shared.reads + shared.updates)
    return series


def _merge_app_counters(workload: str, apps: list, truth: dict, duration_s: float) -> dict:
    """Fold several fabric app instances into one series dict.

    Count-like counters sum across switches; detection scoring unions
    the flagged/promoted sets first (a source is caught if *any* switch
    caught it); the key cache's replicated object is shared, so its
    counters are read once.
    """
    if not apps:
        return {}
    if workload == "synflood":
        flagged: set[int] = set()
        steps = unmatched = mitigated = accesses = 0
        transitions: dict[str, int] = {}
        for app in apps:
            flagged.update(app.flagged_sources())
            steps += app.engine.steps
            unmatched += app.engine.unmatched
            mitigated += app.mitigated
            accesses += app.engine.state_accesses
            for edge, count in app.engine.transition_counts().items():
                transitions[edge] = transitions.get(edge, 0) + count
        attackers = set(truth.get("attackers", []))
        clients = truth.get("clients", [])
        benign = len([c for c in clients if c not in attackers])
        series = {
            "detection_rate": _point(
                len(flagged & attackers) / len(attackers) if attackers else 0.0,
                "higher",
            ),
            "false_positive_rate": _point(
                len(flagged - attackers) / benign if benign else 0.0
            ),
            "mitigated_syns": _point(mitigated),
            "efsm.steps": _point(steps),
            "efsm.unmatched": _point(unmatched),
            "state_accesses": _point(accesses),
        }
        for edge, count in sorted(transitions.items()):
            series[f"efsm.{edge}"] = _point(count)
        return series
    if workload == "heavyhitter":
        promoted: set[int] = set()
        promotions = lookups = accesses = 0
        for app in apps:
            promoted.update(app.promoted_keys())
            promotions += app.promotions
            lookups += app.heavy.lookups
            accesses += app.heavy.lookups * app.rows
        heavy = set(truth.get("heavy", []))
        return {
            "detection_rate": _point(
                len(promoted & heavy) / len(heavy) if heavy else 0.0,
                "higher",
            ),
            "false_positive_rate": _point(
                len(promoted - heavy) / len(promoted) if promoted else 0.0
            ),
            "promotions": _point(promotions),
            "mat_lookups": _point(lookups),
            "state_accesses": _point(accesses),
        }
    if workload == "tokenbucket":
        admitted = limited = divergence = shadow = rounds = 0
        moved = 0.0
        for app in apps:
            admitted += app.admitted
            limited += app.rate_limited
            divergence += app.bucket.admit_divergence
            shadow += app.bucket.shadow_admitted
            rounds += app.bucket.reconciliations
            moved += app.bucket.tokens_moved
        return {
            "admitted": _point(admitted),
            "rate_limited": _point(limited),
            "goodput_pps": _point(
                admitted / duration_s if duration_s > 0 else 0.0, "higher"
            ),
            "scr.admit_divergence": _point(divergence),
            "scr.shadow_admitted": _point(shadow),
            "scr.reconciliations": _point(rounds),
            "scr.tokens_moved": _point(moved),
            "state_accesses": _point(admitted + limited),
        }
    # keycache: shared object, per-app hit counters.
    shared = truth["shared"]
    hits = sum(app.hits for app in apps)
    misses = sum(app.misses for app in apps)
    puts = sum(app.puts for app in apps)
    total = hits + misses
    return {
        "hit_rate": _point(hits / total if total else 0.0, "higher"),
        "hits": _point(hits),
        "misses": _point(misses),
        "puts": _point(puts),
        "stale_reads": _point(shared.stale_reads),
        "merge_rounds": _point(shared.merge_rounds),
        "merge_messages": _point(shared.merge_messages),
        "merge_bytes": _point(shared.merge_bytes),
        "state_accesses": _point(shared.reads + shared.updates),
    }


# --- compile divergence (§3.2) ----------------------------------------------------


def _state_table(workload: str, flows: int, keys_per_packet: int) -> TableSpec:
    """The representative stateful flow table for non-EFSM workloads."""
    bits_per_flow = {
        "tokenbucket": 48,  # token count + refill timestamp share
        "heavyhitter": 96,  # three 32-bit sketch rows
        "keycache": 96,  # value + version tag
    }[workload]
    return TableSpec(
        name=f"{workload}_state",
        kind=MatchKind.EXACT,
        key_width_bits=104,
        capacity=flows,
        keys_per_packet=keys_per_packet,
        stateful_bits=flows * bits_per_flow,
    )


def compile_divergence(workload: str, flows: int) -> StatefulSection:
    """Sweep keys-per-packet through the compiler on both targets.

    Emits, per k: RMT's replication factor and SRAM blocks (growing with
    k — the scalar MAT discipline copies the whole table per key) vs
    ADCP's (flat — k MAUs share one copy up to the array width).
    """
    series: dict[str, dict] = {}
    rmt = rmt_target()
    adcp = adcp_target(array_width=_ADCP_ARRAY_WIDTH)
    for k in _KPP_SWEEP:
        if workload == "synflood":
            program = efsm_program(SYN_FLOOD_EFSM, flows, keys_per_packet=k)
            table_name = f"{SYN_FLOOD_EFSM.name}_flow"
        else:
            from ..program import ProgramGraph

            program = ProgramGraph(f"{workload}_k{k}")
            program.add_table(_state_table(workload, flows, k))
            table_name = f"{workload}_state"
        for target, label in ((rmt, "rmt"), (adcp, "adcp")):
            allocation = Compiler(target).allocate(program)
            series[f"{label}.replication_factor.k{k}"] = _point(
                allocation.replication_factor(table_name)
            )
            series[f"{label}.sram_blocks.k{k}"] = _point(
                allocation.total_sram_blocks
            )
    return StatefulSection(
        label="compile",
        series=series,
        counters={
            "flows": flows,
            "keys_per_packet_sweep": list(_KPP_SWEEP),
            "adcp_array_width": _ADCP_ARRAY_WIDTH,
        },
    )


# --- the runner -------------------------------------------------------------------


def run_stateful(
    workload: str,
    *,
    target: str = "both",
    topology: str = "single",
    flows: int = 64,
    skew: float | None = None,
    packets: int = 400,
    seed: int | None = None,
    coflows: int = 2,
    make_telemetry=None,
    ledger_out: str | Path | None = None,
) -> StatefulRun:
    """Run one stateful workload end to end and build its ledger.

    ``topology="single"`` runs the four-source single-switch stream on
    each requested target; any other value is parsed as a fabric
    topology (e.g. ``leaf-spine-2x2``) and runs the ``stateful-*``
    fabric workload through :func:`repro.fabric.runner.run_fabric`, with
    per-switch app instances harvested for the same series.

    ``skew`` is the zipf exponent of the single-switch draws
    (:data:`~repro.stateful.workloads.DEFAULT_SKEW` when None).  A fabric
    workload refuses an explicit ``skew``: its run records the fixed
    :data:`~repro.stateful.workloads.FABRIC_SKEW` it draws keys with, or
    None when it draws no zipf keys.
    """
    if workload not in STATEFUL_WORKLOADS:
        raise ConfigError(
            f"unknown stateful workload {workload!r}; choose from "
            f"{', '.join(STATEFUL_WORKLOADS)}"
        )
    if target not in ("both", "rmt", "adcp"):
        raise ConfigError(
            f"target must be rmt, adcp, or both, got {target!r}"
        )
    if topology == "single":
        skew = DEFAULT_SKEW if skew is None else skew
    elif skew is not None:
        raise ConfigError(
            f"skew applies to topology 'single' only; fabric stateful "
            f"workloads draw with the fixed zipf skew {FABRIC_SKEW} "
            f"(got {skew})"
        )
    else:
        skew = FABRIC_SKEW if workload in FABRIC_ZIPF_WORKLOADS else None
    seed = DEFAULT_SEED if seed is None else seed
    targets = ("adcp", "rmt") if target == "both" else (target,)
    params = {
        "workload": workload,
        "topology": topology,
        "targets": list(targets),
        "flows": flows,
        "skew": skew,
        "packets": packets,
        "seed": seed,
    }
    sections: list[StatefulSection] = []
    lines: list[str] = []
    for tgt in targets:
        if topology == "single":
            stream, telemetry, result = _run_single_target(
                workload,
                tgt,
                flows=flows,
                skew=skew,
                packets=packets,
                seed=seed,
                make_telemetry=make_telemetry,
            )
            series = _app_series(
                workload, stream.app, stream.truth, result.duration_s
            )
            series["delivered"] = _point(len(result.delivered))
            series["dropped"] = _point(len(result.dropped))
            series["consumed"] = _point(result.consumed)
            series["duration_ns"] = _point(result.duration_s * 1e9)
            section = StatefulSection(
                label=f"{tgt}:{workload}",
                series=series,
                counters=dict(result.counters),
                telemetry=telemetry,
                result=result,
            )
        else:
            from ..fabric.runner import run_fabric

            run = run_fabric(
                topology,
                f"stateful-{workload}",
                target=tgt,
                seed=seed,
                coflows=coflows,
                vector=max(8, packets // 8),
                make_telemetry=make_telemetry,
            )
            factory = run.app_factory
            apps = [
                factory.instances[name]
                for name in sorted(factory.instances)
            ]
            series = _merge_app_counters(
                workload, apps, factory.truth, run.duration_s
            )
            series["delivered"] = _point(run.delivered_to_hosts)
            series["transit_packets"] = _point(run.transit_packets)
            series["injected"] = _point(run.injected)
            series["duration_ns"] = _point(run.duration_s * 1e9)
            section = StatefulSection(
                label=f"{tgt}:{workload}@{run.topology.name}",
                series=series,
                counters={"switches": len(factory.instances)},
                result=run,
            )
        sections.append(section)
        headline = _headline(workload, section.series)
        lines.append(f"{section.label}: {headline}")
    sections.append(compile_divergence(workload, flows))
    run = StatefulRun(
        workload=workload,
        topology=topology,
        targets=targets,
        seed=seed,
        params=params,
        sections=sections,
        lines=lines,
    )
    if ledger_out is not None:
        run.ledger_path = write_ledger(ledger_out, run.ledger())
        lines.append(f"ledger: {run.ledger_path}")
    return run


def _headline(workload: str, series: dict) -> str:
    def mean(name: str) -> float:
        return series.get(name, {}).get("mean", 0.0)

    if workload == "tokenbucket":
        return (
            f"admitted={mean('admitted'):.0f} "
            f"rate_limited={mean('rate_limited'):.0f} "
            f"goodput={mean('goodput_pps'):.3g} pps "
            f"divergence={mean('scr.admit_divergence'):.0f}"
        )
    if workload == "synflood":
        return (
            f"detection={mean('detection_rate'):.2f} "
            f"fpr={mean('false_positive_rate'):.2f} "
            f"mitigated={mean('mitigated_syns'):.0f} "
            f"steps={mean('efsm.steps'):.0f}"
        )
    if workload == "heavyhitter":
        return (
            f"detection={mean('detection_rate'):.2f} "
            f"fpr={mean('false_positive_rate'):.2f} "
            f"promotions={mean('promotions'):.0f}"
        )
    return (
        f"hit_rate={mean('hit_rate'):.2f} "
        f"stale_reads={mean('stale_reads'):.0f} "
        f"merge_rounds={mean('merge_rounds'):.0f}"
    )
