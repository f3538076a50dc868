"""Outside-in per-layer host-time tracer for the perf benchmark.

The tracer times calls into each simulator layer's public functions from
outside the program: it replaces those functions on their classes with
timing wrappers and keeps one stack of open frames.  Each frame records
when it started and how much of its interval child frames covered, so a
layer's *self* time is its inclusive time minus its children's.

Event actions are timed by wrapping ``Simulator.at``/``after``: each
scheduled action is replaced by a timed closure attributed to the
action's ``__module__`` (``repro.rmt.switch`` -> layer ``rmt.switch``).
The collector is timed through ``gc.callbacks``, so collection pauses
land in ``runtime.gc`` instead of inflating whichever layer allocated.

Time outside every layer is booked to a phase: ``setup`` before the
first ``Simulator.run`` begins, ``post`` after it.  ``unattributed`` is
the traced wall minus the layers' self times and both phases: the part
of the tracer's own bookkeeping no frame covers.

Only names in a class's own ``__dict__`` are wrapped.  Inherited methods
stay untouched, so the switches' hook-elision identity check
(``getattr(type(app), region) is getattr(SwitchApp, region)``) and the
pipeline fast paths it unlocks behave exactly as untraced.  A call into
a layer from inside the same layer (``add_many`` calling ``add``,
``admit_burst`` calling ``admit``) is part of the outer call and is
neither timed nor counted again.

A wrap target that no longer exists (a refactor moved it) raises no
error: the tracer emits :class:`LayerTargetMissing` and reports that
layer's numbers as ``None``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import warnings
from time import perf_counter

#: Layers in report order.  ``rmt.switch``/``adcp.switch`` are event
#: actions (see module docstring); ``runtime.gc`` is the collector.
LAYERS = (
    "sim",
    "rmt.switch",
    "adcp.switch",
    "pipeline",
    "net.parser",
    "net.deparser",
    "tables.registers",
    "tables.mat",
    "stateful.replicated",
    "tm",
    "arch.port",
    "apps",
    "fabric.link",
    "fabric.routing",
    "fabric.host",
    "serve.windows",
    "telemetry.monitor",
    "telemetry.spans",
    "runtime.gc",
)

#: Wall time outside every layer: ``setup`` before the first
#: ``Simulator.run``, ``post`` after it begins; ``unattributed`` is what no
#: frame measured (tracer bookkeeping outside any frame).
PHASES = ("setup", "post", "unattributed")

#: ``(layer, module, class, methods)`` wrap targets.  ``Simulator`` and
#: the ``SwitchApp`` subclasses are wrapped separately.
TARGETS = (
    ("pipeline", "repro.rmt.pipeline", "Pipeline", ("service",)),
    (
        "net.parser",
        "repro.net.parser",
        "Parser",
        ("accepts", "lazy_phv", "parse"),
    ),
    ("net.deparser", "repro.net.deparser", "Deparser", ("deparse",)),
    (
        "tables.registers",
        "repro.tables.registers",
        "RegisterArray",
        (
            "read",
            "write",
            "add",
            "merge_min",
            "merge_max",
            "read_many",
            "add_many",
        ),
    ),
    (
        "tables.mat",
        "repro.tables.mat",
        "MatchTable",
        ("lookup", "lookup_many", "install", "remove"),
    ),
    (
        "stateful.replicated",
        "repro.stateful.replicated",
        "ReplicatedObject",
        ("update", "read", "version", "merge_round"),
    ),
    (
        "tm",
        "repro.rmt.traffic_manager",
        "TrafficManager",
        ("admit", "admit_burst", "release", "multicast_admit"),
    ),
    ("tm", "repro.adcp.traffic_manager", "ApplicationTrafficManager", ("admit",)),
    ("arch.port", "repro.arch.port", "TxPort", ("transmit",)),
    ("fabric.link", "repro.fabric.link", "Link", ("__call__",)),
    ("fabric.routing", "repro.fabric.routing", "EcmpSelector", ("choose",)),
    ("fabric.routing", "repro.fabric.routing", "FlowletSelector", ("choose",)),
    ("fabric.host", "repro.fabric.link", "HostEndpoint", ("deliver",)),
    (
        "serve.windows",
        "repro.serve.windows",
        "RollingWindowMonitor",
        ("__call__", "record_delivery"),
    ),
    (
        "telemetry.monitor",
        "repro.telemetry.monitor",
        "ResourceMonitor",
        ("__call__",),
    ),
    (
        "telemetry.spans",
        "repro.telemetry.spans",
        "SpanRecorder",
        ("admit", "record", "service"),
    ),
)

#: Per-packet application code the switches call: the region hooks plus
#: the steering predicates.
APP_HOOKS = ("ingress", "central", "egress", "claims", "placement_key")

#: Modules defining the ``SwitchApp`` subclasses the workloads can use.
APP_MODULES = ("repro.apps", "repro.fabric.app", "repro.stateful.apps")

#: Per-layer metrics beyond the four every layer gets:
#: ``(name, unit, better)``.
EXTRA_METRICS = (
    ("sim.logical_events", "count", "lower"),
    ("sim.events_dispatched", "count", "lower"),
    ("sim.coalesce_ratio", "fraction", "higher"),
    ("sim.peak_live_events", "count", "lower"),
    ("pipeline.hooked_ratio", "fraction", "lower"),
    ("tables.registers.elements_per_call", "elements", "higher"),
    ("tm.admit_fail_ratio", "fraction", "lower"),
    ("runtime.gc.gen2_collections", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("trace_accounted", "fraction", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order.

    Per layer: entries into it (``calls``), its self time (``self_s``),
    that time's share of the traced wall (``share``), and self time per
    call (``ns_per_call``); less of each is better.
    """
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "fraction", "lower"),
            (f"{layer}.ns_per_call", "ns", "lower"),
        ]
    for phase in PHASES:
        out += [
            (f"{phase}.self_s", "s", "lower"),
            (f"{phase}.share", "fraction", "lower"),
        ]
    return out + list(EXTRA_METRICS)


class LayerTargetMissing(UserWarning):
    """A wrap target is gone; its layer is reported as ``None``."""


def _note_hooked(tracer, args, kwargs, result) -> None:
    hook = args[3] if len(args) > 3 else kwargs.get("hook")
    if hook is not None:
        tracer.hooked += 1


def _note_one_element(tracer, args, kwargs, result) -> None:
    tracer.register_elements += 1


def _note_many_elements(tracer, args, kwargs, result) -> None:
    tracer.register_elements += len(args[1])


def _note_admit(tracer, args, kwargs, result) -> None:
    tracer.admit_attempts += 1
    if result is None:
        tracer.admit_failures += 1


def _note_admit_burst(tracer, args, kwargs, result) -> None:
    admitted, rejected = result
    tracer.admit_attempts += len(admitted) + len(rejected)
    tracer.admit_failures += len(rejected)


def _note_multicast(tracer, args, kwargs, result) -> None:
    ports = args[2] if len(args) > 2 else kwargs["ports"]
    tracer.admit_attempts += len(ports)
    tracer.admit_failures += len(ports) - len(result)


#: Counters taken from a wrapped call's arguments and result.
NOTES = {
    ("Pipeline", "service"): _note_hooked,
    **{
        ("RegisterArray", name): _note_one_element
        for name in ("read", "write", "add", "merge_min", "merge_max")
    },
    ("RegisterArray", "read_many"): _note_many_elements,
    ("RegisterArray", "add_many"): _note_many_elements,
    ("TrafficManager", "admit"): _note_admit,
    ("ApplicationTrafficManager", "admit"): _note_admit,
    ("TrafficManager", "admit_burst"): _note_admit_burst,
    ("TrafficManager", "multicast_admit"): _note_multicast,
}


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Per-layer call counts and self times for one traced run.

    Use: :meth:`install` before the workload builds anything (hooks are
    bound at switch construction), bracket the workload with
    :meth:`begin`/:meth:`end`, read :meth:`report`, then
    :meth:`uninstall`.
    """

    def __init__(self) -> None:
        # The frame stack as three parallel lists (layer, start time, time
        # covered by child frames).  Strings and floats are not tracked by
        # the collector, so tracing adds no collector work per frame.  The
        # root frame at index 0 collects the phase time outside every layer.
        self._layers: list = [None]
        self._starts = [0.0]
        self._child = [0.0]
        self._totals: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}
        self._phase_s = {"setup": 0.0, "post": 0.0}
        self._runs = 0
        self._missing: set[str] = set()
        self._restore: list[tuple[type, str, object]] = []
        self._action_layers: dict[str, str] = {}
        self._sims: dict[int, object] = {}
        self.peak_live_events = 0
        self.hooked = 0
        self.register_elements = 0
        self.admit_attempts = 0
        self.admit_failures = 0

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; missing ones warn and null their layer."""
        self._install_kernel()
        for layer, module, cls_name, methods in TARGETS:
            cls = self._resolve(layer, module, cls_name)
            if cls is None:
                continue
            for name in methods:
                note = NOTES.get((cls_name, name))
                self._wrap(layer, cls, name, self._timer(layer, note))
        self._install_apps()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped function and detach from the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()

    def _mark_missing(self, layer: str, what: str) -> None:
        warnings.warn(
            f"layer {layer!r}: wrap target {what} not found; "
            f"its numbers are reported as null",
            LayerTargetMissing,
            stacklevel=3,
        )
        self._missing.add(layer)

    def _resolve(self, layer: str, module: str, cls_name: str):
        try:
            cls = getattr(importlib.import_module(module), cls_name, None)
        except ImportError:
            cls = None
        if cls is None:
            self._mark_missing(layer, f"{module}.{cls_name}")
        return cls

    def _wrap(self, layer: str, cls: type, name: str, make_wrapper) -> None:
        """Replace ``cls.name`` (own ``__dict__`` only) by ``make_wrapper(fn)``."""
        fn = cls.__dict__.get(name)
        if fn is None:
            self._mark_missing(layer, f"{cls.__module__}.{cls.__name__}.{name}")
            return
        setattr(cls, name, functools.wraps(fn)(make_wrapper(fn)))
        self._restore.append((cls, name, fn))

    def _install_apps(self) -> None:
        for module in APP_MODULES:
            try:
                importlib.import_module(module)
            except ImportError:
                self._mark_missing("apps", module)
        base = self._resolve("apps", "repro.arch.app", "SwitchApp")
        if base is None:
            return
        for cls in _subclasses(base):
            for hook in APP_HOOKS:
                if hook in cls.__dict__:
                    self._wrap("apps", cls, hook, self._timer("apps", None))

    def _install_kernel(self) -> None:
        sim_cls = self._resolve("sim", "repro.sim.event", "Simulator")
        if sim_cls is not None:
            self._wrap("sim", sim_cls, "run", self._kernel_run)
            for name in ("at", "after"):
                self._wrap("sim", sim_cls, name, self._kernel_schedule)
        if "sim" in self._missing:
            # Event actions are only attributed through the schedulers.
            self._missing.update(("rmt.switch", "adcp.switch"))

    # --- timing ---------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._layers.append(layer)
        self._child.append(0.0)
        self._starts.append(perf_counter())

    def _leave(self) -> None:
        elapsed = perf_counter() - self._starts.pop()
        child = self._child
        totals = self._totals[self._layers.pop()]
        totals[0] += 1
        totals[1] += elapsed - child.pop()
        child[-1] += elapsed

    def _timer(self, layer: str, note):
        """Wrapper factory timing calls into ``layer``; ``note`` counts."""
        layers, enter, leave, tracer = self._layers, self._enter, self._leave, self

        def make_wrapper(fn):
            def timed(*args, **kwargs):
                if layers[-1] == layer:
                    return fn(*args, **kwargs)
                enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                if note is not None:
                    note(tracer, args, kwargs, result)
                return result

            return timed

        return make_wrapper

    def _kernel_run(self, run):
        def timed_run(sim, *args, **kwargs):
            if len(self._layers) == 1:
                self._flush("setup" if self._runs == 0 else "post")
                self._runs += 1
            self._enter("sim")
            try:
                return run(sim, *args, **kwargs)
            finally:
                self._leave()
                self._sims[id(sim)] = sim

        return timed_run

    def _kernel_schedule(self, schedule):
        """``at``/``after``: time the push as ``sim`` and wrap the action."""

        def timed_schedule(sim, when, action, priority=0):
            self._enter("sim")
            try:
                event = schedule(sim, when, self._timed_action(action), priority)
            finally:
                self._leave()
            live = len(sim.queue)
            if live > self.peak_live_events:
                self.peak_live_events = live
            return event

        return timed_schedule

    def _timed_action(self, action):
        module = getattr(action, "__module__", None) or "unknown"
        layer = self._action_layers.get(module)
        if layer is None:
            layer = self._action_layers[module] = module.removeprefix("repro.")
            if layer not in self._totals:
                warnings.warn(
                    f"event action from undeclared module {module!r}; "
                    f"timed as layer {layer!r}",
                    LayerTargetMissing,
                    stacklevel=4,
                )
                self._totals[layer] = [0, 0.0]
        enter, leave = self._enter, self._leave

        def timed():
            enter(layer)
            try:
                return action()
            finally:
                leave()

        return timed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._enter("runtime.gc")
        elif self._layers[-1] == "runtime.gc":
            self._leave()

    # --- phases ---------------------------------------------------------------

    def _flush(self, phase: str) -> None:
        """Book the root frame's time since its last flush to ``phase``."""
        now = perf_counter()
        self._phase_s[phase] += (now - self._starts[0]) - self._child[0]
        self._starts[0] = now
        self._child[0] = 0.0

    def begin(self) -> None:
        """Start the traced interval (workload entry)."""
        self._starts[0] = perf_counter()
        self._child[0] = 0.0

    def end(self) -> None:
        """Close the traced interval (workload return)."""
        self._flush("post" if self._runs else "setup")

    # --- results --------------------------------------------------------------

    def report(self, wall_s: float) -> dict[str, float | int | None]:
        """Per-layer metrics of the traced interval, whose wall was ``wall_s``.

        ``runtime.gc.gen2_collections`` and ``trace_overhead`` need the
        untraced repeats and are left for the caller.
        """
        out: dict[str, float | int | None] = {}
        for layer in LAYERS:
            calls, self_s = self._totals[layer]
            if layer in self._missing:
                calls = self_s = None
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = None if self_s is None else self_s / wall_s
            out[f"{layer}.ns_per_call"] = (
                None if calls is None else (self_s / calls * 1e9 if calls else 0.0)
            )
        accounted = sum(t[1] for t in self._totals.values())
        accounted += sum(self._phase_s.values())
        phase_s = {**self._phase_s, "unattributed": wall_s - accounted}
        for phase in PHASES:
            out[f"{phase}.self_s"] = phase_s[phase]
            out[f"{phase}.share"] = phase_s[phase] / wall_s
        out.update(self._extras())
        out["trace_accounted"] = accounted / wall_s
        return out

    def undeclared_layers(self) -> dict[str, list]:
        """Action layers timed outside :data:`LAYERS` (``[calls, self_s]``)."""
        return {k: v for k, v in self._totals.items() if k not in LAYERS}

    def _extras(self) -> dict[str, float | int | None]:
        missing = self._missing

        def ratio(part, whole, layer):
            if layer in missing:
                return None
            return part / whole if whole else 0.0

        sims = self._sims.values()
        dispatched = sum(sim.events_dispatched for sim in sims)
        coalesced = sum(sim.events_coalesced for sim in sims)
        logical = dispatched + coalesced
        kernel_ok = "sim" not in missing
        return {
            "sim.logical_events": logical if kernel_ok else None,
            "sim.events_dispatched": dispatched if kernel_ok else None,
            "sim.coalesce_ratio": ratio(coalesced, logical, "sim"),
            "sim.peak_live_events": self.peak_live_events if kernel_ok else None,
            "pipeline.hooked_ratio": ratio(
                self.hooked, self._totals["pipeline"][0], "pipeline"
            ),
            "tables.registers.elements_per_call": ratio(
                self.register_elements,
                self._totals["tables.registers"][0],
                "tables.registers",
            ),
            "tm.admit_fail_ratio": ratio(
                self.admit_failures, self.admit_attempts, "tm"
            ),
        }
