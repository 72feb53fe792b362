"""Per-layer cost attribution, measured from outside the program.

:class:`LayerProfiler` wraps public entry points of the ``repro``
modules at run time and restores them on exit; nothing under ``src/``
knows it exists.  Two kinds of wrapper feed one span stack:

* ``Simulator.step`` is resolved, before it runs, to the module whose
  code the popped event resumes, and the event is charged to that
  module's layer:

  - a finished ``Process`` resolves to its generator's code;
  - a callback that resumes a ``Process`` resolves to that process's
    generator (the process is what the event wakes);
  - a ``_Condition`` (``AnyOf``/``AllOf``) resolves to its waiter;
  - a bound method resolves to the module of its object's class;
  - an engine adapter closure (``call_at``'s lambda) resolves to the
    callable it closes over; any other function to its own module.

* the entry points in :data:`ENTRY_POINTS` push a span of their own
  layer while they run.

Host time is charged to the top of the stack, so a layer's ``self_s``
is its span time minus its child spans.  The resolver's own cost is
charged to nobody.  Spans and counts are aggregated in memory and
reported when the traced pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout, _Condition
from repro.sim.process import Process

#: Event types that are neither processes nor conditions.
_PLAIN_EVENTS = frozenset({Event, Timeout})

#: Packages whose modules are layers of their own; any other ``repro``
#: package is one layer.
SPLIT_PACKAGES = ("core", "dfs", "obs", "sim")

#: Engine plumbing modules, all reported as the ``sim.engine`` layer.
ENGINE_MODULES = frozenset({"sim.engine", "sim.events", "sim.process"})

#: Layers reported by name; everything else in ``repro`` is ``other``.
LAYERS = (
    "sim.engine",
    "sim.bandwidth",
    "cluster",
    "dfs.heartbeat",
    "dfs.namenode",
    "dfs.datanode",
    "compute",
    "core.master",
    "core.targeting",
    "core.pending",
    "core.slave",
    "core.failures",
    "shard",
    "obs.trace",
    "other",
)


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name; None outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    name = ".".join(parts[1:3]) if parts[1] in SPLIT_PACKAGES else parts[1]
    if name in ENGINE_MODULES:
        return "sim.engine"
    return name if name in LAYERS else "other"


def _pull_observer(prefix: str) -> Callable:
    def observe(counts: Counter, args: tuple, result) -> None:
        if not result:
            counts[f"{prefix}.empty"] += 1

    return observe


def _targets_observer(counts: Counter, args: tuple, result) -> None:
    counts["targeting.records"] += len(args[0])


#: (module, class or None for a module function, attribute, layer,
#: call counter, result observer).  Functions imported by name are
#: patched where they are imported.
ENTRY_POINTS = (
    ("repro.core.master", None, "compute_targets", "core.targeting",
     "targeting.calls", _targets_observer),
    ("repro.shard.shard", None, "compute_targets", "core.targeting",
     "targeting.calls", _targets_observer),
    ("repro.core.master", None, "bind_from_pool", "core.pending", None, None),
    ("repro.shard.shard", None, "bind_from_pool", "core.pending", None, None),
    ("repro.core.pending", "PendingPool", "reindex", "core.pending", None, None),
    ("repro.core.master", "DyrsMaster", "retarget", "core.master", None, None),
    ("repro.core.master", "DyrsMaster", "request_work", "core.master",
     "pull", _pull_observer("pull")),
    ("repro.core.master", "DyrsMaster", "on_heartbeat", "core.master", None, None),
    ("repro.core.master", "DyrsMaster", "reclaim_unavailable", "core.master",
     None, None),
    ("repro.shard.coordinator", "ShardCoordinator", "retarget", "shard", None, None),
    ("repro.shard.coordinator", "ShardCoordinator", "request_work", "shard",
     "pull", _pull_observer("pull")),
    ("repro.shard.coordinator", "ShardCoordinator", "on_heartbeat", "shard",
     None, None),
    ("repro.shard.coordinator", "ShardCoordinator", "pull_plan", "shard", None, None),
    ("repro.shard.coordinator", "ShardCoordinator", "bind_from_shard", "shard",
     "leg", _pull_observer("leg")),
    ("repro.dfs.namenode", "NameNode", "receive_heartbeat", "dfs.namenode",
     "heartbeat.reports", None),
    ("repro.dfs.datanode", "DataNode", "read", "dfs.datanode", None, None),
    ("repro.sim.bandwidth", "BandwidthResource", "start_flow", "sim.bandwidth",
     "bandwidth.flows", None),
    ("repro.sim.bandwidth", "BandwidthResource", "cancel", "sim.bandwidth",
     None, None),
    ("repro.compute.scheduler", "TaskScheduler", "acquire", "compute", None, None),
    ("repro.obs.trace", None, "emit", "obs.trace", None, None),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProfiler:
    """Span stack plus event-owner resolver; a context manager that
    installs its wrappers on entry and restores every original on exit."""

    def __init__(self) -> None:
        self.events: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        #: Open spans; each frame accumulates its children's time.
        self._stack: list[list[float]] = []
        #: (owner, attribute, original) in installation order.
        self._patches: list[tuple[object, str, object]] = []
        self._code_layers: dict = {}
        self._file_modules: dict[str, str] = {}
        #: Layer of each condition's waiter, keyed by ``id``: a condition
        #: that already fired has dropped its callbacks, but a late
        #: constituent still wakes it.  The constituent's callback holds
        #: the condition alive, so its ``id`` cannot be reused meanwhile.
        self._condition_layers: dict[int, Optional[str]] = {}

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "LayerProfiler":
        try:
            self._patch(Simulator, "step", self._step_wrapper(Simulator.step))
            for module, cls, attr, layer, counter, observe in ENTRY_POINTS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                    if attr not in vars(owner):
                        raise AttributeError(f"{cls}.{attr} is not defined on {cls}")
                wrapper = self._span_wrapper(
                    getattr(owner, attr), layer, counter, observe
                )
                self._patch(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """Currently installed (owner, attribute, original) triples."""
        return list(self._patches)

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Charge the host time of the block to ``layer``."""
        stack, clock = self._stack, time.perf_counter
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def _span_wrapper(self, fn, layer, counter, observe) -> Callable:
        stack, clock = self._stack, time.perf_counter
        self_s, counts = self.self_s, self.counts

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _step_wrapper(self, step) -> Callable:
        stack, clock = self._stack, time.perf_counter
        self_s, events = self.self_s, self.events
        resolve, code_layers = self._event_layer, self._code_layers

        def wrapper(sim):
            begin = clock()
            heap = sim._heap
            if not heap or heap[0][3]._discarded:
                sim.peek()  # drops discarded entries, exactly as step would
                heap = sim._heap
                if not heap:
                    return step(sim)  # raises IndexError like the original
            event = heap[0][3]
            layer = None
            callbacks = event.callbacks
            if callbacks and type(event) in _PLAIN_EVENTS:
                # Fast path: the event resumes a process waiting on it.
                target = getattr(callbacks[0], "__self__", None)
                if type(target) is Process and target._ok is None and (
                    event is target._target or event is target._control
                ):
                    layer = code_layers.get(target._generator.gi_code)
            if layer is None:
                layer = resolve(event)
            events[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                step(sim)
            finally:
                end = clock()
                stack.pop()
                self_s[layer] += end - start - frame[0]
                if stack:
                    # The resolver's time is charged to nobody.
                    stack[-1][0] += end - begin

        wrapper.__wrapped__ = step
        return wrapper

    # -- event owners ----------------------------------------------------------

    def _event_layer(self, event) -> str:
        if isinstance(event, Process):
            if not event.callbacks:
                self.counts["engine.unawaited_exit"] += 1
            layer = self._generator_layer(event._generator)
        else:
            layer = self._callbacks_layer(event, event.callbacks)
            if isinstance(event, _Condition):
                self._condition_layers[id(event)] = layer
        if layer is None:
            self.counts["engine.unattributed"] += 1
            return "other"
        return layer

    def _callbacks_layer(self, event, callbacks) -> Optional[str]:
        """Owner of ``event``: the first process it resumes, else the
        first callback that resolves."""
        fallback = None
        for callback in callbacks or ():
            target = getattr(callback, "__self__", None)
            if isinstance(target, Process):
                if target._ok is not None or (
                    event is not target._target and event is not target._control
                ):
                    self.counts["engine.stale_wakeups"] += 1
                return self._generator_layer(target._generator)
            if isinstance(target, _Condition):
                layer = self._condition_layer(target)
                if layer is not None:
                    return layer
                continue
            layer = self._callable_layer(callback)
            if fallback is None:
                fallback = layer
        return fallback

    def _condition_layer(self, condition) -> Optional[str]:
        key = id(condition)
        if condition.callbacks is None or condition._ok is not None:
            # Already fired: this wake-up resumes nothing.
            self.counts["engine.stale_wakeups"] += 1
            if condition.callbacks is None:
                return self._condition_layers.get(key)
        layer = self._callbacks_layer(condition, condition.callbacks)
        self._condition_layers[key] = layer
        return layer

    def _callable_layer(self, fn) -> Optional[str]:
        target = getattr(fn, "__self__", None)
        if target is not None:
            return layer_of(type(target).__module__)
        module = getattr(fn, "__module__", None) or ""
        if module.startswith("repro.sim.") and getattr(fn, "__closure__", None):
            for cell in fn.__closure__:
                inner = cell.cell_contents
                if callable(inner) and not isinstance(inner, type):
                    return self._callable_layer(inner)
        return layer_of(module)

    def _generator_layer(self, generator) -> Optional[str]:
        code = getattr(generator, "gi_code", None)
        if code is None:
            return None
        layer = self._code_layers.get(code, False)
        if layer is False:
            module = self._file_modules.get(code.co_filename)
            if module is None:
                self._file_modules = {
                    getattr(m, "__file__", None): name
                    for name, m in list(sys.modules.items())
                    if name.startswith("repro")
                }
                module = self._file_modules.get(code.co_filename, "")
            layer = self._code_layers[code] = layer_of(module)
        return layer

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics of everything profiled so far."""
        counts, events = self.counts, self.events
        total = sum(events.values())
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.events"] = events[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(
            {
                "bench.events_total": total,
                "sim.engine.unawaited_exit_events": counts["engine.unawaited_exit"],
                "sim.engine.stale_wakeups": counts["engine.stale_wakeups"],
                "sim.engine.unattributed_share": _ratio(
                    counts["engine.unattributed"], total
                ),
                "core.slave.pull_rpcs": counts["pull"] + counts["leg"],
                "core.master.empty_grant_share": _ratio(
                    counts["pull.empty"], counts["pull"]
                ),
                "shard.pull_legs": counts["leg"],
                "shard.empty_leg_share": _ratio(counts["leg.empty"], counts["leg"]),
                "core.targeting.records_per_call": _ratio(
                    counts["targeting.records"], counts["targeting.calls"]
                ),
                "dfs.heartbeat.reports": counts["heartbeat.reports"],
                "sim.bandwidth.flows": counts["bandwidth.flows"],
                "sim.bandwidth.wakeups_per_flow": _ratio(
                    events["sim.bandwidth"], counts["bandwidth.flows"]
                ),
            }
        )
        return out
