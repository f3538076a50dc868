#!/usr/bin/env python3
"""Paired parent-vs-change comparison on the repo benchmark.

    python3 benchmarks/perf/compare.py PARENT CHANGE [--pairs 10] [--seed 1]
                                       [--workload NAME ...] [--seconds S] [--out FILE]

PARENT and CHANGE are checkouts of the two commits (directories holding
``src/repro``).  Both sides run with this benchmark's code and settings:
each pair runs every workload once per side, and the side that goes first
alternates from pair to pair.  One row per (workload, metric) gives each
side's median and quartiles over the pairs and a verdict:

``gain``
    the change wins at least 9 of every 10 pairs (ties count for
    neither) and the medians differ by more than the parent's IQR;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    either side's IQR exceeds the bound, so "unchanged" cannot be told
    from noise (unless every change run beats every parent run:
    ``better in every run``);
``more failures``
    the change failed more repeats than the parent, so no gain counts;
``within bound``
    none of the above.

Seed 1 is the default: a claimed gain must hold on the holdout seed,
not only on the seed used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def _better(value: float, than: float, better: str) -> bool:
    return value > than if better == "higher" else value < than


def verdict(
    parent: list[float],
    change: list[float],
    metric: run.Metric,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> dict:
    """Apply the paired rule to one metric's per-pair values."""
    p, c = run.quartiles(parent), run.quartiles(change)
    wins = sum(_better(cv, pv, metric.better) for pv, cv in zip(parent, change))
    sign = 1.0 if metric.better == "higher" else -1.0
    improvement = sign * (c["median"] - p["median"])
    spread = max(run.relative_spread(p), run.relative_spread(c))
    if change_failed > parent_failed:
        label = "more failures"
    elif wins >= 0.9 * len(parent) and improvement > p["q3"] - p["q1"]:
        label = "gain"
    elif spread > metric.bound:
        every = all(_better(cv, pv, metric.better) for cv in change for pv in parent)
        label = "better in every run" if every else "unresolved"
    elif -improvement / abs(p["median"]) > metric.bound:
        label = "regression"
    else:
        label = "within bound"
    return {
        "parent": p,
        "change": c,
        "change_vs_parent": c["median"] / p["median"] - 1.0,
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "bound": metric.bound,
        "verdict": label,
    }


def _cell(stats: dict) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"


def collect(sides: dict, workloads: list, pairs: int, seed: int, seconds: float):
    """Run the pairs; returns ``{side: {workload: [summary per pair]}}``."""
    runs = {side: {name: [] for name in workloads} for side in sides}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in workloads:
            for side in order:
                summary = run.measure(
                    name, seed=seed, seconds=seconds, src=sides[side], trace=False
                )
                runs[side][name].append(summary)
                medians = ", ".join(
                    f"{k}={v:.6g}"
                    for k, v in summary["end_to_end"].items()
                    if v is not None
                )
                print(
                    f"pair {pair + 1}/{pairs} {name} {side}: "
                    f"{summary['failed']} failed, {medians}",
                    flush=True,
                )
    return runs


def rows_for(name: str, parent_runs: list, change_runs: list) -> list[dict]:
    """One verdict row per end-to-end metric of workload ``name``."""
    digests = {s["sim_digest"] for s in parent_runs + change_runs}
    rows = []
    for metric in run.END_TO_END:
        pv = [s["end_to_end"][metric.name] for s in parent_runs]
        cv = [s["end_to_end"][metric.name] for s in change_runs]
        if None in pv or None in cv:
            row = {"verdict": "no data"}
        else:
            row = verdict(
                pv,
                cv,
                metric,
                sum(s["failed"] for s in parent_runs),
                sum(s["failed"] for s in change_runs),
            )
        row.update(
            workload=name,
            metric=metric.name,
            unit=metric.unit,
            same_sim_outputs=len(digests) == 1,
        )
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two commits on the repo benchmark."
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload",
        nargs="+",
        choices=list(run.WORKLOADS),
        default=list(run.WORKLOADS),
    )
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the paired rule needs at least 10 pairs")
    sides = {
        "parent": (args.parent / "src").resolve(),
        "change": (args.change / "src").resolve(),
    }
    for side, src in sides.items():
        if not (src / "repro" / "__init__.py").is_file():
            parser.error(f"{side}: no repro package under {src}")

    runs = collect(sides, args.workload, args.pairs, args.seed, args.seconds)
    rows = []
    print(
        f"\n{'workload':<18} {'metric':<13} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>7} {'wins':>6}  verdict"
    )
    for name in args.workload:
        workload_rows = rows_for(name, runs["parent"][name], runs["change"][name])
        for row in workload_rows:
            if "parent" not in row:
                print(f"{name:<18} {row['metric']:<13} {'no data':>34}")
                continue
            print(
                f"{name:<18} {row['metric']:<13} {_cell(row['parent']):>34} "
                f"{_cell(row['change']):>34} {row['change_vs_parent']:>+7.1%} "
                f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
            )
        if not workload_rows[0]["same_sim_outputs"]:
            print(f"{name:<18} simulated outputs differ between the commits")
        rows += workload_rows
    if args.out is not None:
        document = {"seed": args.seed, "pairs": args.pairs, "rows": rows}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    bad = ("regression", "more failures", "no data")
    return 1 if any(row["verdict"] in bad for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
