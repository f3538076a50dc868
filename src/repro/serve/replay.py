"""Open-loop replay schedules: rate-controlled, seed-deterministic load.

The replay frontend generates the same coflow traffic the fabric
workloads define (:func:`~repro.fabric.workloads.build_workload`), but
instead of injecting every flow back-to-back at t=0 it spaces packets
with an *open-loop* arrival process per host NIC: each packet's
departure gap is drawn from the offered-load target (``rate`` as a
fraction of the host link rate), independent of how the fabric is
coping — the standard way to expose queueing and drops under overload.

Two arrival processes are supported (:data:`ARRIVAL_KINDS`):

- ``periodic`` — deterministic gaps of exactly ``wire_time / rate``.
- ``poisson``  — exponential gaps with that mean, drawn from a per-host
  PCG64 stream seeded by ``stable_hash64("serve/<seed>/h<host>")``, so
  schedules are byte-stable across runs.

A :class:`RateProfile` modulates the target rate over time: an optional
linear warm-up ramp and any number of multiplicative :class:`BurstPhase`
overlays (a factor > 1/rate models transient overload).  Workload rounds
are generated on demand with disjoint coflow-id ranges (``coflow_base``)
until every active host's clock passes the horizon; packets scheduled
past the horizon are cut, so coflows in flight at the end may stay
incomplete — serve mode reports them as such rather than failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError, SimulationError
from ..fabric.topology import Topology
from ..fabric.workloads import FabricCoflowSpec, build_workload
from ..net.packet import Packet
from ..sim.rng import make_rng, stable_hash64
from ..units import BITS_PER_BYTE

ARRIVAL_KINDS = ("poisson", "periodic")

#: Hard cap on generated workload rounds: a backstop against a profile
#: whose effective rate is so low that the horizon is never reached.
MAX_ROUNDS = 4096

#: Hard cap on rolling windows per serve run (``duration / window``):
#: each window closes a record and samples every switch gauge, so a
#: sub-nanosecond window would grind for minutes.  Repo callers use at
#: most ~40.
MAX_WINDOWS = 1024

#: The warm-up ramp never scales the rate below this floor (keeps gap
#: draws finite at t=0).
RAMP_FLOOR = 0.1

_NS = 1e-9

_DURATION_UNITS = {
    "ns": 1.0,
    "us": 1e3,
    "ms": 1e6,
    "s": 1e9,
}


def parse_duration_ns(text: str) -> float:
    """Parse ``"20us"`` / ``"500ns"`` / ``"1ms"`` / bare ns into ns."""
    raw = str(text).strip()
    for suffix in ("ns", "us", "ms", "s"):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            break
    else:
        suffix, number = "ns", raw
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(
            f"bad duration {text!r}; expected <number>[ns|us|ms|s]"
        )
    if value <= 0:
        raise ConfigError(f"duration must be positive, got {text!r}")
    duration_ns = value * _DURATION_UNITS[suffix]
    if not math.isfinite(duration_ns):  # nan, inf, or an overflow
        raise ConfigError(f"duration must be finite, got {text!r}")
    return duration_ns


@dataclass(frozen=True)
class BurstPhase:
    """One transient load multiplier: ``rate *= factor`` on [start, end)."""

    factor: float
    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if not 0 < self.factor < math.inf:  # also rejects NaN
            raise ConfigError(
                f"burst factor must be positive and finite, got {self.factor}"
            )
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"burst phase needs 0 <= start < end, got "
                f"[{self.start_ns}, {self.end_ns})"
            )

    @classmethod
    def parse(cls, text: str) -> "BurstPhase":
        """Parse the CLI form ``FACTOR@START:END`` (durations per
        :func:`parse_duration_ns`), e.g. ``2.0@5us:8us``."""
        raw = str(text).strip()
        if "@" not in raw or ":" not in raw.split("@", 1)[1]:
            raise ConfigError(
                f"bad burst {text!r}; expected FACTOR@START:END "
                f"(e.g. 2.0@5us:8us)"
            )
        factor_text, span = raw.split("@", 1)
        start_text, end_text = span.split(":", 1)
        try:
            factor = float(factor_text)
        except ValueError:
            raise ConfigError(f"bad burst factor in {text!r}")
        return cls(
            factor,
            parse_duration_ns(start_text),
            parse_duration_ns(end_text),
        )


@dataclass(frozen=True)
class RateProfile:
    """Offered load over time, as a fraction of the host link rate."""

    rate: float
    ramp_ns: float = 0.0
    bursts: tuple[BurstPhase, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # also rejects NaN
            raise ConfigError(
                f"rate must be positive and finite, got {self.rate}"
            )
        if self.ramp_ns < 0:
            raise ConfigError(f"ramp must be >= 0, got {self.ramp_ns}")

    def at(self, t_ns: float) -> float:
        """Effective rate at ``t_ns``: ramp floor, then burst overlays."""
        rate = self.rate
        if self.ramp_ns > 0 and t_ns < self.ramp_ns:
            rate *= max(RAMP_FLOOR, t_ns / self.ramp_ns)
        for burst in self.bursts:
            if burst.start_ns <= t_ns < burst.end_ns:
                rate *= burst.factor
        return rate


@dataclass
class ServeSchedule:
    """A fully-materialized replay: per-host streams plus bookkeeping."""

    workload: str
    duration_s: float
    #: host id -> time-ordered (departure_s, packet) at the host NIC.
    arrivals: dict[int, list[tuple[float, Packet]]]
    #: Every host-departure time, sorted, across all hosts (offered load).
    departure_times_s: list[float]
    #: Coflows with at least one scheduled packet (later rounds included).
    coflows: list[FabricCoflowSpec]
    #: (coflow_id, host_id) -> expected terminal packets, scheduled only.
    expected: dict[tuple[int, int], int]
    terminal_opcode: int
    aggregated: bool
    #: coflow id -> first host-departure time (CCT clock start).
    first_departure_s: dict[int, float]
    rounds: int
    coflows_per_round: int = 0
    params: dict = field(default_factory=dict)
    #: Per-switch app factory for stateful workloads (first round's —
    #: instances persist across rounds, claiming by opcode).
    app_factory: object = None

    @property
    def injected(self) -> int:
        return sum(len(stream) for stream in self.arrivals.values())


def build_schedule(
    workload: str,
    topology: Topology,
    *,
    profile: RateProfile,
    arrivals: str = "poisson",
    duration_ns: float,
    coflows: int = 2,
    vector: int = 64,
    elements_per_packet: int,
    link_bps: float,
    seed: int = 0,
) -> ServeSchedule:
    """Materialize the open-loop replay for one serve run.

    Rounds of ``workload`` (each ``coflows`` wide, coflow ids offset by
    ``coflow_base``) are generated until every host with pending traffic
    has a NIC clock past ``duration_ns``.  Worker selection inside each
    round is the workload's own seeded draw, so round *r* of seed *s* is
    the same traffic whatever the rate profile does.
    """
    if arrivals not in ARRIVAL_KINDS:
        raise ConfigError(
            f"unknown arrival process {arrivals!r}; choose from "
            f"{', '.join(ARRIVAL_KINDS)}"
        )
    if not 0 < duration_ns < math.inf:  # also rejects NaN
        raise ConfigError(
            f"duration must be positive and finite, got {duration_ns}"
        )
    duration_s = duration_ns * _NS
    poisson = arrivals == "poisson"

    host_ids = topology.host_ids
    rngs = {
        host: make_rng(stable_hash64(f"serve/{seed}/h{host}") % (2**32))
        for host in host_ids
    }
    clocks = {host: 0.0 for host in host_ids}
    streams: dict[int, list[tuple[float, Packet]]] = {h: [] for h in host_ids}
    all_specs: list[FabricCoflowSpec] = []
    all_expected: dict[tuple[int, int], int] = {}
    first_departure: dict[int, float] = {}
    terminal_opcode = 0
    aggregated = False
    app_factory = None

    rounds = 0
    while True:
        if rounds >= MAX_ROUNDS:
            raise SimulationError(
                f"serve schedule exceeded {MAX_ROUNDS} workload rounds "
                f"before reaching the horizon; raise the rate or shorten "
                f"the duration"
            )
        work = build_workload(
            workload,
            topology,
            coflows=coflows,
            vector=vector,
            elements_per_packet=elements_per_packet,
            link_bps=link_bps,
            load=1.0,
            seed=seed,
            coflow_base=rounds * coflows,
        )
        terminal_opcode = work.terminal_opcode
        aggregated = work.aggregated
        if app_factory is None:
            app_factory = work.app_factory
        scheduled_any = False
        for host in sorted(work.arrivals):
            rng = rngs[host]
            clock = clocks[host]
            if clock > duration_s:
                continue
            for _, packet in work.arrivals[host]:
                wire_s = packet.wire_bytes * BITS_PER_BYTE / link_bps
                mean_gap = wire_s / profile.at(clock / _NS)
                gap = (
                    float(rng.exponential(mean_gap)) if poisson else mean_gap
                )
                clock += gap
                if clock > duration_s:
                    break
                streams[host].append((clock, packet))
                scheduled_any = True
                coflow_id = packet.header("coflow")["coflow_id"]
                seen = first_departure.get(coflow_id)
                if seen is None or clock < seen:
                    first_departure[coflow_id] = clock
            clocks[host] = clock
        all_specs.extend(work.coflows)
        all_expected.update(work.expected)
        rounds += 1
        if not scheduled_any:
            break

    # Only coflows that actually put a packet on a wire participate in
    # hosting/completion accounting; a final empty round is expected.
    live_specs = [s for s in all_specs if s.coflow_id in first_departure]
    live_expected = {
        key: count
        for key, count in all_expected.items()
        if key[0] in first_departure
    }
    departures = sorted(
        time for stream in streams.values() for time, _ in stream
    )
    return ServeSchedule(
        workload=workload,
        duration_s=duration_s,
        arrivals={h: streams[h] for h in sorted(streams) if streams[h]},
        departure_times_s=departures,
        coflows=live_specs,
        expected=live_expected,
        terminal_opcode=terminal_opcode,
        aggregated=aggregated,
        first_departure_s=first_departure,
        rounds=rounds,
        coflows_per_round=coflows,
        app_factory=app_factory,
    )
