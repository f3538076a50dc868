"""Replay frontend tests: durations, rate profiles, schedule builds."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.fabric.runner import PORT_SPEED_BPS
from repro.fabric.topology import parse_topology
from repro.serve.replay import (
    RAMP_FLOOR,
    BurstPhase,
    RateProfile,
    build_schedule,
    parse_duration_ns,
)


def _schedule(rate=0.8, **overrides):
    kwargs = dict(
        profile=RateProfile(rate),
        arrivals="poisson",
        duration_ns=4_000.0,
        coflows=2,
        vector=64,
        elements_per_packet=16,
        link_bps=PORT_SPEED_BPS,
        seed=0,
    )
    kwargs.update(overrides)
    topo = parse_topology(overrides.pop("topology", "leaf-spine-2x2"))
    kwargs.pop("topology", None)
    return build_schedule("fabric-allreduce", topo, **kwargs)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("500ns", 500.0),
            ("2us", 2_000.0),
            ("1.5us", 1_500.0),
            ("1ms", 1e6),
            ("0.001s", 1e6),
            ("250", 250.0),
        ],
    )
    def test_units(self, text, expected):
        assert parse_duration_ns(text) == expected

    @pytest.mark.parametrize("text", ["soon", "", "us", "--", "1h"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ConfigError, match="duration"):
            parse_duration_ns(text)

    @pytest.mark.parametrize("text", ["0", "-5us", "0ns"])
    def test_rejects_nonpositive(self, text):
        with pytest.raises(ConfigError, match="positive"):
            parse_duration_ns(text)

    @pytest.mark.parametrize(
        "text", ["nan", "inf", "nanus", "1e400s", "1e300s"]
    )
    def test_rejects_non_finite(self, text):
        # 1e300s is finite in seconds but overflows in ns.
        with pytest.raises(ConfigError, match="finite"):
            parse_duration_ns(text)


class TestBurstPhase:
    def test_parse(self):
        burst = BurstPhase.parse("2.0@5us:8us")
        assert burst == BurstPhase(2.0, 5_000.0, 8_000.0)

    def test_parse_mixed_units(self):
        burst = BurstPhase.parse("1.5@500ns:2us")
        assert (burst.start_ns, burst.end_ns) == (500.0, 2_000.0)

    @pytest.mark.parametrize("text", ["2.0", "2.0@5us", "hot@1us:2us"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigError, match="burst"):
            BurstPhase.parse(text)

    def test_rejects_empty_or_inverted_span(self):
        with pytest.raises(ConfigError):
            BurstPhase(2.0, 5_000.0, 5_000.0)
        with pytest.raises(ConfigError):
            BurstPhase(2.0, 8_000.0, 5_000.0)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            BurstPhase(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("text", ["nan@1us:2us", "inf@1us:2us"])
    def test_rejects_non_finite_factor(self, text):
        with pytest.raises(ConfigError, match="burst factor .* finite"):
            BurstPhase.parse(text)


class TestRateProfile:
    def test_flat_profile(self):
        profile = RateProfile(0.5)
        assert profile.at(0.0) == 0.5
        assert profile.at(1e9) == 0.5

    def test_ramp_is_linear_with_floor(self):
        profile = RateProfile(1.0, ramp_ns=1_000.0)
        assert profile.at(0.0) == RAMP_FLOOR
        assert profile.at(500.0) == 0.5
        assert profile.at(1_000.0) == 1.0
        assert profile.at(2_000.0) == 1.0

    def test_burst_window_is_half_open(self):
        profile = RateProfile(
            0.5, bursts=(BurstPhase(2.0, 1_000.0, 2_000.0),)
        )
        assert profile.at(999.0) == 0.5
        assert profile.at(1_000.0) == 1.0
        assert profile.at(1_999.0) == 1.0
        assert profile.at(2_000.0) == 0.5

    def test_bursts_stack_multiplicatively(self):
        profile = RateProfile(
            0.5,
            bursts=(
                BurstPhase(2.0, 0.0, 100.0),
                BurstPhase(3.0, 50.0, 100.0),
            ),
        )
        assert profile.at(75.0) == pytest.approx(3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            RateProfile(0.0)
        with pytest.raises(ConfigError):
            RateProfile(1.0, ramp_ns=-1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ConfigError, match="rate .* finite"):
            RateProfile(rate)


class TestBuildSchedule:
    def test_deterministic_per_seed(self):
        first = _schedule(seed=3)
        second = _schedule(seed=3)
        assert first.departure_times_s == second.departure_times_s
        assert first.injected == second.injected
        assert first.rounds == second.rounds

    def test_seeds_diverge(self):
        assert (
            _schedule(seed=0).departure_times_s
            != _schedule(seed=1).departure_times_s
        )

    def test_periodic_gaps_are_constant(self):
        schedule = _schedule(arrivals="periodic", rate=0.5)
        for stream in schedule.arrivals.values():
            times = [t for t, _ in stream]
            gaps = {
                round(b - a, 15) for a, b in zip(times, times[1:])
            }
            # One wire-time-per-rate gap per packet size in the stream.
            assert len(gaps) <= 3

    def test_higher_rate_packs_more_packets(self):
        assert _schedule(rate=1.5).injected > _schedule(rate=0.4).injected

    def test_departures_sorted_and_within_horizon(self):
        schedule = _schedule()
        times = schedule.departure_times_s
        assert times == sorted(times)
        assert all(0.0 < t <= schedule.duration_s for t in times)

    def test_coflow_ids_unique_across_rounds(self):
        schedule = _schedule(rate=2.0)
        ids = [spec.coflow_id for spec in schedule.coflows]
        assert len(ids) == len(set(ids))
        assert schedule.rounds > 1

    def test_every_scheduled_coflow_has_first_departure(self):
        schedule = _schedule()
        for spec in schedule.coflows:
            assert spec.coflow_id in schedule.first_departure_s
        for key in schedule.expected:
            assert key[0] in schedule.first_departure_s

    def test_single_switch_topology(self):
        schedule = _schedule(topology="single-8")
        assert schedule.injected > 0

    def test_rejects_unknown_arrivals(self):
        with pytest.raises(ConfigError, match="arrival"):
            _schedule(arrivals="bursty")

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError, match="positive"):
            _schedule(duration_ns=0.0)

    @pytest.mark.parametrize("duration_ns", [float("nan"), float("inf")])
    def test_rejects_non_finite_duration(self, duration_ns):
        with pytest.raises(ConfigError, match="finite"):
            _schedule(duration_ns=duration_ns)

    def test_round_cap_guards_runaway_generation(self, monkeypatch):
        # A profile needing unboundedly many rounds to reach the horizon
        # must fail loudly, not loop; shrink the cap to trigger cheaply.
        import repro.serve.replay as replay

        monkeypatch.setattr(replay, "MAX_ROUNDS", 8)
        with pytest.raises(SimulationError, match="8 workload rounds"):
            _schedule(rate=1e3, duration_ns=1_000.0)

    def test_vanishing_rate_schedules_nothing(self):
        # The horizon cuts every packet: an empty (but valid) schedule.
        schedule = _schedule(rate=1e-12, duration_ns=10.0)
        assert schedule.injected == 0
        assert schedule.coflows == []
