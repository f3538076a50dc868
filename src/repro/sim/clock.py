"""Clock domains for multi-frequency models.

RMT ties one clock to the whole pipeline; the ADCP deliberately breaks that
assumption (section 3.3 runs pipelines at a fraction of the port rate, and
section 4 proposes clocking the shared MAT memory ``n`` times faster than
the pipeline for ``n``-wide array lookups).  These helpers convert between
cycles and seconds so components at different frequencies can coexist on a
single event queue.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class Clock:
    """An ideal clock of a fixed frequency.

    Attributes:
        frequency_hz: Cycles per second; must be positive.
        name: Optional label used in stats and error messages.
    """

    frequency_hz: float
    name: str = "clock"

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError(
                f"clock {self.name!r} frequency must be positive, "
                f"got {self.frequency_hz}"
            )
        # The period is read on every cycle conversion in the scheduling
        # hot path; cache it once (the dataclass is frozen, so the
        # frequency can never drift out from under the cache).
        object.__setattr__(self, "_period_s", 1.0 / self.frequency_hz)

    @property
    def period_s(self) -> float:
        """Duration of one cycle, in seconds."""
        return self._period_s

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds."""
        return cycles * self._period_s

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert a duration to (possibly fractional) cycles."""
        return seconds * self.frequency_hz

    def cycle_at(self, time_s: float) -> int:
        """Index of the cycle containing ``time_s`` (cycle 0 starts at 0)."""
        return int(time_s * self.frequency_hz + 1e-9)

    def edge_after(self, time_s: float) -> float:
        """Time of the first rising edge strictly after ``time_s``."""
        cycle = self.cycle_at(time_s)
        edge = (cycle + 1) * self._period_s
        return edge

    def derived(self, multiplier: float, name: str | None = None) -> "Clock":
        """Return a clock at ``multiplier`` times this frequency.

        Used by the multi-clock MAT memory design: a width-``n`` array
        memory runs on ``pipeline_clock.derived(n)``.
        """
        if multiplier <= 0:
            raise ConfigError(f"clock multiplier must be positive, got {multiplier}")
        return Clock(self.frequency_hz * multiplier, name or f"{self.name}x{multiplier:g}")


class ClockDomain:
    """A named group of components sharing one clock.

    Tracks the current cycle for the domain and provides the bookkeeping
    feasibility analyses need: how many domain cycles elapse per cycle of a
    reference clock, and whether a ratio is an integer (clean clock-domain
    crossings) or fractional (needs asynchronous FIFOs, which the
    feasibility model penalizes).
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.cycle = 0

    def advance(self, cycles: int = 1) -> int:
        """Advance the domain by ``cycles`` and return the new cycle index."""
        if cycles < 0:
            raise ConfigError(f"cannot advance a clock domain by {cycles}")
        self.cycle += cycles
        return self.cycle

    @property
    def now_s(self) -> float:
        """Current domain time in seconds."""
        return self.clock.cycles_to_seconds(self.cycle)

    def ratio_to(self, other: "ClockDomain | Clock") -> float:
        """Frequency ratio of this domain to ``other`` (>1 means faster)."""
        other_clock = other.clock if isinstance(other, ClockDomain) else other
        return self.clock.frequency_hz / other_clock.frequency_hz

    def is_integer_ratio_to(self, other: "ClockDomain | Clock", tol: float = 1e-9) -> bool:
        """True when the crossing to ``other`` is an integer ratio."""
        ratio = self.ratio_to(other)
        if ratio < 1.0:
            ratio = 1.0 / ratio
        return abs(ratio - round(ratio)) <= tol
