"""Discrete-event / cycle-level simulation kernel.

The switch models in :mod:`repro.rmt` and :mod:`repro.adcp` are built from
clocked components that exchange items through bounded channels.  This
package provides the kernel underneath them:

- :class:`~repro.sim.event.EventQueue` and
  :class:`~repro.sim.event.Simulator` — a classic discrete-event core: one
  ``heapq`` queue with deterministic tie-breaking and lazy cancellation
  (see docs/KERNEL.md for the entry format and the dispatch loops).
- :class:`~repro.sim.clock.Clock` and
  :class:`~repro.sim.clock.ClockDomain` — cycle arithmetic for components
  running at different frequencies (the ADCP's multi-clock MAT memories
  need this).
- :class:`~repro.sim.component.Component` and
  :class:`~repro.sim.component.Channel` — the structural building blocks.
- :class:`~repro.sim.stats.Counter`, :class:`~repro.sim.stats.Histogram`,
  :class:`~repro.sim.stats.StatsRegistry` — measurement.
- :func:`~repro.sim.rng.make_rng` — seeded, stream-split randomness so every
  experiment is reproducible.
"""

from .clock import Clock, ClockDomain
from .component import Channel, Component
from .event import EventQueue, Simulator
from .rng import make_rng, split_rng
from .stats import Counter, Histogram, StatsRegistry

__all__ = [
    "Channel",
    "Clock",
    "ClockDomain",
    "Component",
    "Counter",
    "EventQueue",
    "Histogram",
    "Simulator",
    "StatsRegistry",
    "make_rng",
    "split_rng",
]
