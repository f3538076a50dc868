"""Architecture-neutral switch building blocks.

Pieces shared between the RMT model (:mod:`repro.rmt`) and the ADCP model
(:mod:`repro.adcp`):

- :class:`~repro.arch.port.TxPort` — transmit-side serialization at link
  rate (one packet on the wire at a time).
- :class:`~repro.arch.decision.Decision` — what an application asks the
  switch to do with a packet (forward / drop / consume / emit).
- :class:`~repro.arch.app.SwitchApp` and
  :class:`~repro.arch.app.PipelineContext` — the programming interface an
  in-network application implements once and runs on either target.  The
  context deliberately exposes *only* the state co-resident with the
  pipeline executing the hook; the architectural difference between RMT
  and ADCP is exactly which state that is.
- :class:`~repro.arch.switch.BaseSwitch` and
  :class:`~repro.arch.switch.SwitchRunResult` — the switch skeleton both
  targets extend (run loop, telemetry, verdict settlement, egress-TM
  admission, transmit) and the result a run returns.
"""

from .app import PipelineContext, SwitchApp
from .decision import Decision, Verdict
from .port import TxPort
from .switch import BaseSwitch, SwitchRunResult

__all__ = [
    "BaseSwitch",
    "Decision",
    "PipelineContext",
    "SwitchApp",
    "SwitchRunResult",
    "TxPort",
    "Verdict",
]
