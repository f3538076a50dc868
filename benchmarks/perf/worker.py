"""One benchmark repeat: run a workload once and print a JSON record.

``run.py`` starts this file as a fresh interpreter for every repeat, so
no heap state (allocator pools, collector generations, caches) leaks
from one repeat into the next.  The record carries the end-to-end
timings, the simulated outputs with their digest, and, for a traced
repeat, the per-layer report of :mod:`layers`.

    PYTHONPATH=src python3 benchmarks/perf/worker.py \
        --workload switch-rmt --seed 0 [--trace]
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import traceback
from time import perf_counter

import layers
from repro.sim.event import Simulator
from workloads import WORKLOADS


class RunClock:
    """Times ``Simulator.run``: the first entry and the inclusive total."""

    def __init__(self) -> None:
        self.first_entry: float | None = None
        self.run_s = 0.0
        self.sims: dict[int, Simulator] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = Simulator.__dict__["run"]

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            start = perf_counter()
            if self.first_entry is None:
                self.first_entry = start
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.run_s += perf_counter() - start
                self.sims[id(sim)] = sim

        Simulator.run = run

    def uninstall(self) -> None:
        Simulator.run = self._original

    def events(self) -> tuple[int, int]:
        """``(dispatched, coalesced)`` summed over every simulator run."""
        sims = self.sims.values()
        return (
            sum(sim.events_dispatched for sim in sims),
            sum(sim.events_coalesced for sim in sims),
        )


def sim_digest(checks: dict) -> str:
    """sha256 of the simulated outputs' canonical JSON."""
    text = json.dumps(checks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_once(
    name: str, seed: int, trace: bool = False, sizes: dict | None = None
) -> dict:
    """Run workload ``name`` once in this process and return its record.

    A workload that raises (a failed check included) is recorded with
    ``ok: false`` and its error; the caller leaves it out of the timings.
    """
    workload = WORKLOADS[name]
    clock = RunClock()
    tracer = layers.Tracer() if trace else None
    clock.install()
    try:
        if tracer is not None:
            tracer.install()
        gen2_before = gc.get_stats()[2]["collections"]
        start = perf_counter()
        if tracer is not None:
            tracer.begin()
        try:
            checks = workload(seed, **(sizes or {}))
            error = None
        except Exception:  # recorded, not raised: one failed repeat is data
            checks = None
            error = traceback.format_exc(limit=-3)
        if tracer is not None:
            tracer.end()
        wall_s = perf_counter() - start
        gen2 = gc.get_stats()[2]["collections"] - gen2_before
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()

    dispatched, coalesced = clock.events()
    logical = dispatched + coalesced
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "ok": error is None,
        "error": error,
        "wall_s": wall_s,
        "setup_s": (
            None if clock.first_entry is None else clock.first_entry - start
        ),
        "run_s": clock.run_s,
        "events_dispatched": dispatched,
        "events_coalesced": coalesced,
        "events_per_s": logical / clock.run_s if clock.run_s else None,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "gen2_collections": gen2,
        "checks": checks,
        "sim_digest": None if checks is None else sim_digest(checks),
    }
    if tracer is not None:
        record["layers"] = tracer.report(wall_s)
        record["undeclared_layers"] = tracer.undeclared_layers()
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_once(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
