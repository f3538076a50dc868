"""Serve mode: open-loop traffic replay with rolling-window SLO ledgers.

Batch runs (``repro fabric``, ``repro monitor``) answer "what did this
workload do, end to end"; serve mode answers "how does this fabric
behave *under sustained load*" — the way the paper's §4 frames ADCP vs
RMT as a deployment decision.  A seed-deterministic replay schedule
(:mod:`repro.serve.replay`) streams rate-controlled coflow traffic into
a continuously-running fabric, a :class:`~repro.serve.windows.
RollingWindowMonitor` folds deliveries into tumbling fixed-width
windows (p50/p99 latency, drop rate, throughput, TM occupancy,
recirculation depth, per-coflow CCT), and an
:class:`~repro.serve.slo.SloPolicy` turns each window into a live
verdict.  The run ends as a run ledger carrying the window records,
the SLO summary and the run totals — byte-identical per seed, diffable
with ``repro diff``.

See docs/SERVING.md for the replay model, window semantics, the SLO
expression format, and the ledger's serve payloads.
"""

from .replay import (  # noqa: F401
    ARRIVAL_KINDS,
    BurstPhase,
    RateProfile,
    ServeSchedule,
    build_schedule,
    parse_duration_ns,
)
from .slo import SloObjective, SloPolicy  # noqa: F401
from .windows import RollingWindowMonitor  # noqa: F401
from .runner import ServeRun, run_serve  # noqa: F401
