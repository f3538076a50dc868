"""The resource monitor: deterministic time-series over switch resources.

Trace events (PR 1) record *that* something happened and the profiler
(PR 3) says *where a packet's nanoseconds went*; neither shows how
resource pressure — TM occupancy, bank access counts, queue backlogs,
port utilization, recirculation-loop depth — *evolves* during a run.
:class:`ResourceMonitor` fills that gap: it polls registered probes every
N simulated nanoseconds into compact columnar series.

Design constraints, in order:

- **Deterministic.**  Sampling is driven by the simulation clock (the
  kernel's time-advance probe), never wall time.  Samples land on a fixed
  grid regardless of event spacing, so two runs of the same seeded
  workload produce byte-identical CSVs.
- **Zero overhead when absent.**  Attachment goes through
  :meth:`~repro.sim.event.Simulator.add_time_probe`; a switch without a
  monitor keeps the kernel's single ``time_probe is None`` check and no
  other branch anywhere.
- **Non-perturbing when present.**  Probes only read component state;
  they never schedule events, so monitoring cannot change event order or
  the run's final duration.

Probe *definitions* live with the components they observe
(``monitor_probes()`` on pipelines, traffic managers, ports, and the
switches themselves); :meth:`ResourceMonitor.attach` walks the component
tree and collects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf
from pathlib import Path
from typing import Callable

from ..errors import ConfigError

ProbeFn = Callable[[float], float]
"""A probe: ``fn(now_s) -> value`` evaluated at each sample instant."""

#: Default sampling spacing (simulated nanoseconds), also the grid of
#: every ``trace``/``profile`` hub: fine enough to catch TM occupancy
#: between packet admit and release on the reference workloads, coarse
#: enough that sampling stays a rounding error next to event dispatch.
DEFAULT_INTERVAL_NS = 50.0

_NS_PER_S = 1e9


def _percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile over pre-sorted values.

    Same contract as :meth:`repro.sim.stats.Histogram.percentile` so
    series summaries and attribution tables quote comparable numbers.
    """
    if not sorted_values:
        raise ConfigError("percentile of an empty series")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] + fraction * (
        sorted_values[high] - sorted_values[low]
    )


@dataclass(frozen=True)
class SeriesSummary:
    """Self-contained digest of one monitored series.

    This is what the run ledger embeds (the full columns go to CSV), and
    what ``repro diff`` compares between two runs.
    """

    name: str
    samples: int
    mean: float
    peak: float
    p99: float
    last: float

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "mean": self.mean,
            "peak": self.peak,
            "p99": self.p99,
            "last": self.last,
        }


class ResourceMonitor:
    """Samples registered probes on a fixed simulated-time grid.

    Usage, via the telemetry hub (the normal path)::

        monitor = ResourceMonitor(interval_ns=50)
        telemetry = Telemetry(monitor=monitor)
        switch = RMTSwitch(config, app, telemetry=telemetry)
        switch.run(workload)
        monitor.series("rmt.tm.occupancy")     # [(t, v), ...]
        monitor.write_csv("monitor.csv")

    or standalone on an already-built switch::

        monitor = ResourceMonitor()
        monitor.attach(switch)                  # before switch.run(...)

    Storage is columnar: one shared time axis plus one float column per
    series, all the same length.  The probe set freezes at the first
    sample so columns can never misalign.
    """

    def __init__(self, interval_ns: float = DEFAULT_INTERVAL_NS) -> None:
        if not 0 < interval_ns < inf:  # also rejects NaN
            raise ConfigError(
                f"monitor interval must be positive and finite, "
                f"got {interval_ns}"
            )
        self.interval_ns = float(interval_ns)
        self.interval_s = interval_ns / _NS_PER_S
        self.times_s: list[float] = []
        self._probes: dict[str, ProbeFn] = {}
        self._columns: dict[str, list[float]] = {}
        self._names: list[str] = []
        self._frozen = False
        self._next_s = self.interval_s
        self._attached = None

    # --- registration -----------------------------------------------------------

    def probe(self, name: str, fn: ProbeFn) -> None:
        """Register a probe at dotted ``name``.

        Probes must all be registered before the first sample — a column
        born mid-run would misalign the time axis — and names must be
        unique.
        """
        if not name:
            raise ConfigError("probe name must be non-empty")
        if self._frozen:
            raise ConfigError(
                f"cannot register probe {name!r}: the monitor already "
                f"took samples; register every probe before the run"
            )
        if name in self._probes:
            raise ConfigError(f"duplicate probe name {name!r}")
        self._probes[name] = fn

    def attach(self, switch) -> None:
        """Wire this monitor into ``switch`` (one switch per monitor).

        Walks the component tree collecting every ``monitor_probes()``
        contribution (switch, pipelines, traffic managers — the switch
        itself contributes its ports and loop series), then installs the
        monitor on the simulator clock.  Call before ``switch.run``.
        """
        if self._attached is not None and self._attached is not switch:
            raise ConfigError(
                "a ResourceMonitor serves one switch; build one per switch"
            )
        if self._attached is switch:
            return
        self._attached = switch
        for component in switch.walk():
            contribute = getattr(component, "monitor_probes", None)
            if contribute is not None:
                for name, fn in contribute().items():
                    self.probe(name, fn)
        switch._sim.add_time_probe(self)

    @property
    def attached(self):
        """The switch this monitor observes, if any."""
        return self._attached

    def _freeze(self) -> None:
        self._names = sorted(self._probes)
        self._columns = {name: [] for name in self._names}
        self._frozen = True

    # --- sampling ---------------------------------------------------------------

    def __call__(self, new_time_s: float) -> None:
        """Clock hook: one sample per grid boundary crossed."""
        while self._next_s <= new_time_s:
            self.sample(self._next_s)
            self._next_s += self.interval_s

    def next_deadline_s(self) -> float:
        """Next grid boundary — the kernel's probe-deadline contract.

        Clock advances strictly below this are no-ops, and any call at
        or past it moves the grid beyond the probed time, so the
        dispatcher may run uninstrumented in between (docs/KERNEL.md).
        """
        return self._next_s

    def sample(self, time_s: float) -> None:
        """Capture one row: every probe evaluated at ``time_s``."""
        if not self._frozen:
            self._freeze()
        self.times_s.append(time_s)
        columns = self._columns
        for name in self._names:
            columns[name].append(float(self._probes[name](time_s)))

    def finish(self, now_s: float) -> None:
        """Take the end-of-run sample (called by the telemetry hub).

        Guarantees at least one row even for runs shorter than the
        interval, and pins each cumulative series' final value.
        """
        if not self.times_s or self.times_s[-1] < now_s:
            self.sample(now_s)

    # --- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def names(self) -> list[str]:
        """Series names, sorted (frozen order once sampling started)."""
        return list(self._names) if self._frozen else sorted(self._probes)

    def column(self, name: str) -> list[float]:
        """The raw value column of one series."""
        if name not in self._columns:
            raise ConfigError(f"no monitored series {name!r}")
        return self._columns[name]

    def series(self, name: str) -> list[tuple[float, float]]:
        """``(time_s, value)`` pairs of one series."""
        return list(zip(self.times_s, self.column(name)))

    def summaries(self) -> dict[str, SeriesSummary]:
        """Per-series digests (peak/mean/p99/last) for the run ledger."""
        out: dict[str, SeriesSummary] = {}
        for name in self._names:
            column = self._columns[name]
            if not column:
                continue
            ordered = sorted(column)
            out[name] = SeriesSummary(
                name=name,
                samples=len(column),
                mean=fsum(column) / len(column),
                peak=ordered[-1],
                p99=_percentile(ordered, 99.0),
                last=column[-1],
            )
        return out

    # --- export -----------------------------------------------------------------

    def csv_lines(self) -> list[str]:
        """The columnar store as CSV rows: ``time_ns`` plus one column
        per series.  Float formatting is fixed (``repr``-stable ``%.10g``)
        so identical runs serialize byte-identically."""
        header = ",".join(["time_ns"] + self._names)
        lines = [header]
        for row, time_s in enumerate(self.times_s):
            cells = [format(time_s * _NS_PER_S, ".10g")]
            cells.extend(
                format(self._columns[name][row], ".10g")
                for name in self._names
            )
            lines.append(",".join(cells))
        return lines

    def write_csv(self, path: str | Path) -> Path:
        """Write the time-series as CSV; returns the path written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.csv_lines()) + "\n")
        return target

    def chrome_counter_events(self, pid: str | None = None) -> list[dict]:
        """The series as Chrome trace-event counter (``"ph": "C"``)
        tracks, mergeable into the trace-event timeline export."""
        out: list[dict] = []
        for row, time_s in enumerate(self.times_s):
            for name in self._names:
                root, _, _ = name.partition(".")
                out.append(
                    {
                        "name": name,
                        "cat": "monitor",
                        "ph": "C",
                        "pid": pid or root,
                        "ts": time_s * 1e6,
                        "args": {"value": self._columns[name][row]},
                    }
                )
        return out
