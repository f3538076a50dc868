"""repro — a reproduction of "Rethinking the Switch Architecture for
Stateful In-network Computing" (HotNets '24).

The library models both the classic RMT switch architecture and the
paper's proposed ADCP (Application-Defined Coflow Processor), along with
the analytical scaling models, coflow workloads, in-network applications,
and chip-feasibility estimators needed to reproduce every table, figure,
and inline claim of the paper.

Quickstart::

    from repro import ADCPConfig, ADCPSwitch, aggregation_coflow
    from repro.apps import ParameterServerApp

    coflow = aggregation_coflow(1, worker_ports=[0, 1, 2, 3],
                                vector_elements=1024)
    app = ParameterServerApp(num_workers=4, elements_per_packet=16)
    switch = ADCPSwitch(ADCPConfig(num_ports=8), app)
    result = switch.run(app.workload(coflow))

Sub-packages:

- :mod:`repro.sim` — discrete-event kernel, clocks, stats.
- :mod:`repro.net` — packets, headers, parsing, PHVs, traffic.
- :mod:`repro.coflow` — the coflow model, workloads, metrics, placement.
- :mod:`repro.tables` — match tables, memories, actions, registers.
- :mod:`repro.program` — program graphs and the stage allocator.
- :mod:`repro.rmt` / :mod:`repro.adcp` — the two switch models.
- :mod:`repro.analytical` — Tables 2/3 and key-rate math.
- :mod:`repro.feasibility` — area, power, floorplan, routing congestion.
- :mod:`repro.apps` — the Table 1 applications.
- :mod:`repro.telemetry` — structured tracing, resource monitoring, export.
"""

from .adcp import ADCPConfig, ADCPSwitch
from .arch import Decision, SwitchApp, Verdict
from .coflow import (
    Coflow,
    Flow,
    aggregation_coflow,
    bsp_round_coflow,
    multicast_coflow,
    shuffle_coflow,
    synthesize_workload,
)
from .errors import ReproError
from .rmt import RMTConfig, RMTSwitch, StateMode
from .telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "ADCPConfig",
    "ADCPSwitch",
    "Coflow",
    "Decision",
    "Flow",
    "RMTConfig",
    "RMTSwitch",
    "ReproError",
    "StateMode",
    "SwitchApp",
    "Telemetry",
    "Verdict",
    "__version__",
    "aggregation_coflow",
    "bsp_round_coflow",
    "multicast_coflow",
    "shuffle_coflow",
    "synthesize_workload",
]
