"""Behavioral model of the classic RMT switch architecture (Figure 1).

Structure: ``n`` ports are multiplexed ``n/p`` to a pipeline; ingress
pipelines feed a shared-memory traffic manager, which forwards to the
egress pipeline owning each packet's TX port.  Stateful resources live
*inside* pipelines, so coflow state is pinned to wherever its ports (or its
chosen egress pipeline) happen to be — issues (1), (2), and (3) of the paper
all fall out of this structure:

- State reachable only via port-determined pipelines -> egress pinning or
  recirculation (:class:`~repro.rmt.switch.RMTSwitch` models both).
- Scalar match-action units -> stateful tables force 1 element per packet;
  stateless tables replicate per parallel key
  (:class:`~repro.rmt.pipeline.Pipeline` with ``array_width=1``).
- One packet per cycle per pipeline -> the Table 2 frequency wall
  (:mod:`repro.analytical.scaling`).
"""

from .config import RMTConfig, StateMode
from .pipeline import Pipeline, PipelineRuntimeContext, Stage
from .switch import RMTSwitch
from .traffic_manager import TrafficManager

__all__ = [
    "Pipeline",
    "PipelineRuntimeContext",
    "RMTConfig",
    "RMTSwitch",
    "Stage",
    "StateMode",
    "TrafficManager",
]
