"""The garbage-collector contract of the kernel and the run entries.

``CollectorPause`` pauses automatic cyclic collection and restores the
caller's state on every exit path.  ``Simulator.run`` enters it for the
drain; ``BaseSwitch.run``, ``run_fabric`` and ``run_serve`` enter it
before they build and admit their arrivals, so a whole run sits in one
pause.  The pause is only sound because a run creates no reference
cycles: the audit below runs every traceable reference workload (full
trace on) plus a sampled serve run with ``gc.DEBUG_SAVEALL`` and
requires that no cyclic garbage appears inside an outermost pause.  A
hook or builder that starts leaking cycles fails here instead of
quietly growing memory during long runs.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro import RMTConfig, RMTSwitch
from repro.apps import ParameterServerApp
from repro.sim.event import CollectorPause, Simulator
from repro.telemetry.runner import TRACEABLE
from repro.units import GBPS

from .test_kernel_equivalence import GridProbe


@pytest.fixture(autouse=True)
def _restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _fast(sim: Simulator) -> None:
    sim.run()


def _probed(sim: Simulator) -> None:
    sim.add_time_probe(GridProbe(1.5))
    sim.run()


def _instrumented(sim: Simulator) -> None:
    sim.run(max_events=100)


def _step(sim: Simulator) -> None:
    while sim.step():
        pass


DRAINS = [_fast, _probed, _instrumented, _step]


@pytest.mark.parametrize("drain", DRAINS, ids=lambda d: d.__name__.strip("_"))
class TestCollectorPause:
    def test_paused_during_drain_and_restored_after(self, drain):
        sim = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            sim.at(time, lambda: seen.append(gc.isenabled()))
        gc.enable()
        drain(sim)
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_restored_after_an_action_raises(self, drain):
        sim = Simulator()

        def boom():
            raise RuntimeError("action failed")

        sim.at(1.0, boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="action failed"):
            drain(sim)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, drain):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        gc.disable()
        drain(sim)
        assert not gc.isenabled()


def test_nested_run_keeps_the_outer_pause():
    outer = Simulator()
    inner = Simulator()
    inner.at(1.0, lambda: None)
    seen = []

    def nested():
        inner.run()
        seen.append(gc.isenabled())

    outer.at(1.0, nested)
    outer.at(2.0, lambda: seen.append(gc.isenabled()))
    gc.enable()
    outer.run()
    assert seen == [False, False]
    assert gc.isenabled()


# --- run entries ---------------------------------------------------------------


def _watch(stream, seen: list, fail_at: int | None):
    """Yield ``stream``, noting the collector state at every item; raise
    at item ``fail_at`` like a builder failing mid-stream."""
    for index, item in enumerate(stream):
        if index == fail_at:
            raise RuntimeError("builder failed mid-stream")
        seen.append(gc.isenabled())
        yield item


class _WatchedList(list):
    """A host's arrival list (``len`` still works) iterated via ``_watch``."""

    def __init__(self, items, seen: list, fail_at: int | None) -> None:
        super().__init__(items)
        self._seen = seen
        self._fail_at = fail_at

    def __iter__(self):
        return _watch(super().__iter__(), self._seen, self._fail_at)


def _switch_entry(monkeypatch, seen, fail_at):
    config = RMTConfig(num_ports=8, pipelines=2, port_speed_bps=100 * GBPS)
    app = ParameterServerApp([0, 1, 4, 5], 16, elements_per_packet=1)
    arrivals = app.workload(config.port_speed_bps)
    RMTSwitch(config, app).run(_watch(arrivals, seen, fail_at))


def _watch_builder(monkeypatch, module, name: str, seen, fail_at):
    """Replace ``module.name`` (a workload/schedule builder) by one that
    notes the collector state when called and watches its arrivals."""
    build = getattr(module, name)

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        built = build(*args, **kwargs)
        built.arrivals = {
            host: _WatchedList(stream, seen, fail_at)
            for host, stream in built.arrivals.items()
        }
        return built

    monkeypatch.setattr(module, name, watched)


def _fabric_entry(monkeypatch, seen, fail_at):
    import repro.fabric.runner as runner

    _watch_builder(monkeypatch, runner, "build_workload", seen, fail_at)
    runner.run_fabric(
        "leaf-spine-2x2", "fabric-allreduce", target="rmt", coflows=1,
        vector=8, make_telemetry=lambda: None,
    )


def _serve_entry(monkeypatch, seen, fail_at):
    import repro.serve.runner as runner

    _watch_builder(monkeypatch, runner, "build_schedule", seen, fail_at)
    runner.run_serve(
        "leaf-spine-2x2", "fabric-allreduce", duration_ns=1000.0,
        window_ns=500.0,
    )


@pytest.mark.parametrize(
    "entry",
    [_switch_entry, _fabric_entry, _serve_entry],
    ids=["switch", "fabric", "serve"],
)
class TestRunEntryPause:
    def test_paused_while_building_and_restored_after(self, entry, monkeypatch):
        seen = []
        gc.enable()
        entry(monkeypatch, seen, None)
        assert len(seen) > 1 and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_builder_raises(self, entry, monkeypatch):
        seen = []
        gc.enable()
        with pytest.raises(RuntimeError, match="mid-stream"):
            entry(monkeypatch, seen, 3)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, entry, monkeypatch):
        seen = []
        gc.disable()
        entry(monkeypatch, seen, None)
        assert seen and not any(seen)
        assert not gc.isenabled()


# --- cycle audit ---------------------------------------------------------------


class _CycleAudit:
    """Wraps :class:`CollectorPause` to collect the cyclic garbage each
    outermost pause leaves behind: a run entry's arrival building and
    admission together with its drain, or a bare ``Simulator.run``.

    On entry to the outermost scope a real collection frees whatever
    cycles the caller left; ``DEBUG_SAVEALL`` is then set, so the
    collection on exit saves (rather than frees) every unreachable object
    the scope produced.  Their type names are tallied in ``leaked``.
    """

    def __init__(self, monkeypatch) -> None:
        self.leaked: Counter[str] = Counter()
        self.scopes = 0
        self._depth = 0
        self._flags = 0
        self._start = 0
        enter = CollectorPause.__enter__
        leave = CollectorPause.__exit__

        def audited_enter(pause):
            if not self._depth:
                self._flags = gc.get_debug()
                gc.collect()
                self._start = len(gc.garbage)
                gc.set_debug(self._flags | gc.DEBUG_SAVEALL)
            self._depth += 1
            enter(pause)

        def audited_exit(pause, *exc_info):
            leave(pause, *exc_info)
            self._depth -= 1
            if not self._depth:
                gc.collect()
                gc.set_debug(self._flags)
                garbage = gc.garbage[self._start:]
                self.leaked.update(type(o).__name__ for o in garbage)
                del gc.garbage[self._start:]
                self.scopes += 1

        monkeypatch.setattr(CollectorPause, "__enter__", audited_enter)
        monkeypatch.setattr(CollectorPause, "__exit__", audited_exit)


@pytest.mark.parametrize("workload", sorted(TRACEABLE))
def test_traceable_workload_drains_create_no_cycles(workload, monkeypatch):
    audit = _CycleAudit(monkeypatch)
    TRACEABLE[workload]()
    assert audit.scopes > 0
    assert not audit.leaked, f"{workload}: cyclic garbage {dict(audit.leaked)}"


def test_sampled_serve_drain_creates_no_cycles(monkeypatch):
    from repro.serve.runner import run_serve

    audit = _CycleAudit(monkeypatch)
    run_serve("leaf-spine-2x2", "fabric-allreduce", duration_ns=4000,
              window_ns=500, sample=8)
    assert audit.scopes == 1
    assert not audit.leaked, f"serve: cyclic garbage {dict(audit.leaked)}"


def test_audit_catches_a_cycle(monkeypatch):
    """The audit is live: an action that builds a cycle is reported."""
    audit = _CycleAudit(monkeypatch)
    sim = Simulator()

    def leak():
        node: dict = {}
        node["self"] = node

    sim.at(1.0, leak)
    sim.run()
    assert audit.leaked == Counter({"dict": 1})


def test_audit_covers_admission(monkeypatch):
    """A cycle made while a switch run builds its arrivals is reported
    too: admission and drain share the outermost pause."""
    audit = _CycleAudit(monkeypatch)
    config = RMTConfig(num_ports=8, pipelines=2, port_speed_bps=100 * GBPS)
    app = ParameterServerApp([0, 1], 4, elements_per_packet=1)

    def leaking(stream):
        for item in stream:
            node: dict = {}
            node["self"] = node
            yield item

    RMTSwitch(config, app).run(leaking(app.workload(config.port_speed_bps)))
    assert audit.scopes == 1
    assert audit.leaked == Counter({"dict": 8})
