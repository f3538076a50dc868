#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end host metrics, per-layer trace.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                   [--trace 0|1] [--out FILE]

Every repeat is a fresh single-threaded ``worker.py`` process, run one at
a time.  For each workload, untraced repeats run until ``--seconds`` have
passed (at least three); their medians are the end-to-end metrics.  One
extra traced repeat (:mod:`layers`) gives the per-layer numbers.
``--trace 0`` runs only the untraced repeats and reports the end-to-end
metrics; ``--trace 1`` adds the traced repeat and reports the per-layer
metrics; without ``--trace`` both are run and reported.

Seed 0 is for development; seed 1 is the holdout a claimed gain must
also pass.  The command prints every metric with its unit, median,
quartiles and sample count; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (with several
workloads, metric names are prefixed ``<workload>.``).  ``--out`` writes
the full per-workload document.  The exit code is 1 when any repeat
failed a correctness check, 2 when there is no ``src/repro`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKER = HERE / "worker.py"


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric and the share by which it may worsen."""

    name: str
    unit: str
    better: str
    bound: float


#: Host-side costs a user of the simulator sees, measured untraced.  The
#: bounds are set from this benchmark's own run-to-run spread on a shared
#: 2-core VM (see README.md, "Noise").
END_TO_END = (
    # Logical events (dispatched + coalesced) per second of Simulator.run.
    Metric("events_per_s", "events/s", "higher", 0.20),
    # Workload entry to return, verification included.
    Metric("wall_s", "s", "lower", 0.20),
    # Workload entry to the first Simulator.run: construction, workload
    # materialization, preload scheduling.
    Metric("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the worker process.
    Metric("peak_rss_mb", "MiB", "lower", 0.08),
)

#: Canonical workload names -> why each is in the benchmark (the layers
#: it stresses and the ones it bypasses).
WORKLOADS = {
    "switch-rmt": "RMT scalar path on one switch: switch glue, TM and pipeline "
    "dominate; 32k preloaded arrivals make it GC-heavy; no fabric or telemetry",
    "switch-adcp": "ADCP array path: app and register-array time dominate with "
    "few events per element; bypasses recirculation and fabric",
    "stateful-keycache": "zipf register reads beside 1-in-8 writes plus "
    "replicated-object merges on RMT; ~20k of 32k packets recirculate",
    "fabric-shuffle": "pure forwarding across 20 RMT switches: hookless pipeline "
    "fast path, ECMP, links and a large live event queue; no apps or tables",
    "serve-fattree": "always-on observability on ADCP fat-tree serving: rolling "
    "windows, per-switch monitors, 1-in-16 spans; the only telemetry and serve "
    "user",
}

MIN_REPEATS = 3
DEFAULT_SECONDS = 15
WORKER_TIMEOUT_S = 120


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and count (quartiles as ``statistics.quantiles``)."""
    n = len(values)
    if n == 0:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if n == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": n}


def relative_spread(stats: dict) -> float | None:
    """Interquartile range as a share of the median."""
    if not stats["median"]:
        return None
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def git_sha(src: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_block(src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(src),
    }


def launch(name: str, seed: int, src: Path, traced: bool) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(src), *paths])
    # Same string hashes in every repeat, so dict and set layouts repeat.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {WORKER_TIMEOUT_S} s"
        return {"ok": False, "traced": traced, "error": error}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        error = f"worker exited {done.returncode}: {tail}"
        return {"ok": False, "traced": traced, "error": error}
    return json.loads(lines[-1])


def measure(name: str, *, seed: int, seconds: float, src: Path, trace: bool) -> dict:
    """Untraced repeats for ``seconds`` (at least three), then one traced
    repeat when ``trace`` is set; returns the workload's summary."""
    load_before = os.getloadavg()[0]
    started = perf_counter()
    untraced: list[dict] = []
    while len(untraced) < MIN_REPEATS or perf_counter() - started < seconds:
        untraced.append(launch(name, seed, src, traced=False))
    traced = launch(name, seed, src, traced=True) if trace else None
    load_avg = {"before": load_before, "after": os.getloadavg()[0]}
    return summarize(name, untraced, traced, load_avg)


def summarize(
    name: str, untraced: list[dict], traced: dict | None, load_avg: dict
) -> dict:
    """Fold one workload's repeat records into its summary.

    A repeat whose ``sim_digest`` differs from the majority counts as
    failed; failed repeats are left out of every statistic.
    """
    records = untraced + ([traced] if traced is not None else [])
    digests = Counter(r["sim_digest"] for r in records if r["ok"])
    digest = digests.most_common(1)[0][0] if digests else None
    for record in records:
        if record["ok"] and record["sim_digest"] != digest:
            record["ok"] = False
            record["error"] = "sim_digest differs from the other repeats"
    good = [r for r in untraced if r["ok"]]
    failed = sum(not r["ok"] for r in records)

    stats = {}
    for metric in END_TO_END:
        values = [r[metric.name] for r in good]
        stats[metric.name] = {
            "unit": metric.unit,
            **quartiles(values),
            "values": values,
        }
    noisy = [
        metric.name
        for metric in END_TO_END
        if (spread := relative_spread(stats[metric.name])) is not None
        and spread > metric.bound
    ]

    per_layer = {}
    if traced is not None:
        per_layer = dict.fromkeys(m for m, _, _ in layers.per_layer_metrics())
        if traced["ok"]:
            per_layer.update(traced["layers"])
            gen2 = quartiles([r["gen2_collections"] for r in good])["median"]
            wall = stats["wall_s"]["median"]
            per_layer["runtime.gc.gen2_collections"] = gen2
            per_layer["trace_overhead"] = traced["wall_s"] / wall if wall else None

    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "end_to_end": {m.name: stats[m.name]["median"] for m in END_TO_END},
        "per_layer": per_layer,
        "stats": stats,
        "noisy": noisy,
        "sim_digest": digest,
        "checks": next((r["checks"] for r in records if r["ok"]), None),
        "undeclared_layers": (traced or {}).get("undeclared_layers", {}),
        "load_avg": load_avg,
        "errors": [r["error"] for r in records if not r["ok"]],
    }


def result_metrics(summary: dict, trace: int | None) -> dict:
    """The summary's metrics as ``{name: {"value", "unit"}}``: end-to-end
    unless ``trace`` is 1, per-layer unless it is 0."""
    out = {}
    if trace != 1:
        for metric in END_TO_END:
            value = summary["end_to_end"][metric.name]
            out[metric.name] = {"value": value, "unit": metric.unit}
    if trace != 0:
        for name, unit, _ in layers.per_layer_metrics():
            out[name] = {"value": summary["per_layer"].get(name), "unit": unit}
    return out


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_summary(summary: dict) -> None:
    ok = summary["attempted"] - summary["failed"]
    traced = " (one traced)" if summary["per_layer"] else ""
    load = summary["load_avg"]
    print(
        f"== {summary['workload']}: {ok}/{summary['attempted']} repeats ok"
        f"{traced}, sim_digest {(summary['sim_digest'] or '-')[:12]}, "
        f"load {load['before']:.2f} -> {load['after']:.2f}"
    )
    checks = summary["checks"] or {}
    print("   checks: " + ", ".join(f"{k}={_fmt(v)}" for k, v in checks.items()))
    for error in summary["errors"]:
        print(f"   FAILED: {error.strip().splitlines()[-1]}")
    print(f"   {'metric':<14} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12}   n")
    for metric in END_TO_END:
        s = summary["stats"][metric.name]
        print(
            f"   {metric.name:<14} {metric.unit:<9} {_fmt(s['median']):>12} "
            f"{_fmt(s['q1']):>12} {_fmt(s['q3']):>12} {s['n']:>3}"
        )
    if summary["noisy"]:
        noisy = ", ".join(summary["noisy"])
        print(f"   noisy (IQR above bound, treat as unresolved): {noisy}")
    values = summary["per_layer"]
    if not values:
        return
    print("   per layer, one traced repeat (n=1); metric = <layer>.<column>:")
    print(
        f"   {'layer':<20} {'calls':>9} {'self_s':>10} {'share':>8} "
        f"{'ns_per_call':>12}"
    )
    for layer in layers.LAYERS:
        print(
            f"   {layer:<20} {_fmt(values[layer + '.calls']):>9} "
            f"{_fmt(values[layer + '.self_s']):>10} "
            f"{_fmt(values[layer + '.share']):>8} "
            f"{_fmt(values[layer + '.ns_per_call']):>12}"
        )
    for phase in layers.PHASES:
        print(
            f"   {phase:<20} {'':>9} {_fmt(values[phase + '.self_s']):>10} "
            f"{_fmt(values[phase + '.share']):>8}"
        )
    for name, unit, _ in layers.EXTRA_METRICS:
        print(f"   {name:<36} {_fmt(values[name]):>12} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark.",
        epilog=f"workloads: {', '.join(WORKLOADS)}",
    )
    parser.add_argument(
        "--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {src}", file=sys.stderr)
        return 2

    host = host_block(src)
    print(
        f"host: python {host['python']} {host['machine']}, nproc {host['nproc']}, "
        f"git {host['git_sha'][:12]}; seed {args.seed}, "
        f"{args.seconds:g} s per workload"
    )
    summaries = []
    for name in args.workload:
        summary = measure(
            name, seed=args.seed, seconds=args.seconds, src=src, trace=args.trace != 0
        )
        print_summary(summary)
        summaries.append(summary)

    results = {
        s["workload"]: {
            "correct": s["correct"],
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": result_metrics(s, args.trace),
        }
        for s in summaries
    }
    if args.out is not None:
        detail = (
            "stats",
            "noisy",
            "sim_digest",
            "checks",
            "load_avg",
            "errors",
            "undeclared_layers",
        )
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "host": host,
            "workloads": {
                s["workload"]: {**results[s["workload"]], **{k: s[k] for k in detail}}
                for s in summaries
            },
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")

    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**line, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
