"""The kernel's garbage-collector contract.

``Simulator.run`` pauses automatic cyclic collection while it drains and
restores the caller's collector state on every exit path.  The pause is
only sound because the drain creates no reference cycles: the audit
below runs every traceable reference workload (full trace on) plus a
sampled serve run with ``gc.DEBUG_SAVEALL`` and requires that no cyclic
garbage appears inside ``Simulator.run``.  A hook that starts leaking
cycles fails here instead of quietly growing memory during long drains.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.sim.event import Simulator
from repro.telemetry.runner import TRACEABLE

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


# --- cycle audit ---------------------------------------------------------------


class _CycleAudit:
    """Wraps ``Simulator.run`` to collect the cyclic garbage each drain
    leaves behind.

    On entry to the outermost ``run`` a real collection frees whatever
    cycles setup left; ``DEBUG_SAVEALL`` is then set, so the collection
    on exit saves (rather than frees) every unreachable object the drain
    produced.  Their type names are tallied in ``leaked``.
    """

    def __init__(self, monkeypatch) -> None:
        self.leaked: Counter[str] = Counter()
        self.drains = 0
        self._depth = 0
        original = Simulator.run

        def audited_run(sim, *args, **kwargs):
            if self._depth:
                return original(sim, *args, **kwargs)
            self._depth += 1
            flags = gc.get_debug()
            gc.collect()
            start = len(gc.garbage)
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            try:
                return original(sim, *args, **kwargs)
            finally:
                gc.collect()
                gc.set_debug(flags)
                self.leaked.update(type(o).__name__ for o in gc.garbage[start:])
                del gc.garbage[start:]
                self.drains += 1
                self._depth -= 1

        monkeypatch.setattr(Simulator, "run", audited_run)


@pytest.mark.parametrize("workload", sorted(TRACEABLE))
def test_traceable_workload_drains_create_no_cycles(workload, monkeypatch):
    audit = _CycleAudit(monkeypatch)
    TRACEABLE[workload]()
    assert audit.drains > 0
    assert not audit.leaked, f"{workload}: cyclic garbage {dict(audit.leaked)}"


def test_sampled_serve_drain_creates_no_cycles(monkeypatch):
    from repro.serve.runner import run_serve

    audit = _CycleAudit(monkeypatch)
    run_serve("leaf-spine-2x2", "fabric-allreduce", duration_ns=4000,
              window_ns=500, sample=8)
    assert audit.drains > 0
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
