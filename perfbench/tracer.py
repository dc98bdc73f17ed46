"""Outside-in span tracer: times each layer through its public functions.

:func:`install` replaces every public function of the repo's layers
(see :data:`LAYERS`) with a timing wrapper, before the deployment is
built, so the bound methods the program caches at build time are the
wrappers.  Nothing inside ``src/`` changes.  The end-to-end run never
calls :func:`install`: it runs in a process of its own with no wrapper
anywhere.

* A plain function is one span: wall time from call to return.
* A coroutine function returns a :class:`_TimedCoro`, which times each
  ``send``/``throw`` — each resume step — rather than the wall interval
  across awaits, so time spent suspended is never counted.
* Self time is a span's time minus the time of the spans that ran
  inside it.  ``Kernel.run`` is a span of the ``sim`` layer, so
  ``sim``'s self time is the kernel loop plus every function no
  wrapper covers.
* Each span has a parent (the span that called or spawned it, or — for
  an arriving message — the span that sent it) and a call id shared by
  every span reached from one call entry (:data:`CALL_ENTRIES`).  Work
  no call caused (timers, heartbeats) has call id 0.
* Spans stay in memory (at most ``max_spans`` of them; the rest are
  counted, not kept) and :meth:`Tracer.dump` writes them as JSON lines
  at the end of the run.  Per-layer and per-function totals cover every
  span, kept or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import OrderedDict, defaultdict
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

#: layer -> modules whose classes (and functions) belong to it.  The
#: layers are the repo's modules; ``runtime`` is folded into ``sim``,
#: ``xkernel`` into ``net`` and the binding directory into
#: ``deployment`` (the call path resolves names through it).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.kernel", "repro.sim.sync",
            "repro.runtime.sim_runtime", "repro.runtime.base"),
    "events": ("repro.core.events", "repro.core.framework"),
    "microprotocols": tuple(
        f"repro.core.microprotocols.{name}" for name in (
            "acceptance", "asynchronous_call", "atomic_execution", "base",
            "bounded_termination", "causal_order", "collation",
            "fifo_order", "interference_avoidance", "observer",
            "probe_orphan", "reliable_communication", "rpc_main",
            "serial_execution", "synchronous_call", "terminate_orphan",
            "total_order", "unique_execution")),
    "grpc": ("repro.core.grpc",),
    "deployment": ("repro.core.deployment", "repro.core.replycache",
                   "repro.stubs.binding"),
    "net": ("repro.net.transport", "repro.net.wire", "repro.net.fabric",
            "repro.net.node", "repro.net.trace", "repro.net.message",
            "repro.xkernel.demux", "repro.xkernel.upi"),
    "stubs": ("repro.stubs.marshal", "repro.stubs.stubgen"),
    "placement": ("repro.placement.plane", "repro.placement.ring",
                  "repro.placement.view", "repro.placement.migration",
                  "repro.placement.driver", "repro.apps.sharding"),
    "replication": ("repro.replication.group", "repro.replication.manager"),
    "adapt": ("repro.adapt.engine", "repro.adapt.driver"),
    "membership": ("repro.membership.detector",
                   "repro.membership.service"),
    "stablestore": ("repro.stablestore.store",),
    "apps": ("repro.apps.dispatcher", "repro.apps.kvstore"),
}

#: Trivial accessors left unwrapped: a span would time the tracer, not
#: the function.  Their (tiny) cost lands in the caller's layer.
SKIP = {"now", "current_handle_nowait", "is_set", "empty", "locked"}

#: Functions that start a call: a span opened here with no call around
#: it gets a fresh call id.
CALL_ENTRIES = {"Deployment.call", "PlacementPlane.call"}

#: inner span -> the outer span whose virtual time it is subtracted
#: from: ``Deployment.call`` minus ``GroupRPC.call`` is the call-gate
#: wait; ``PlacementPlane.call`` minus ``Deployment.call`` is the time
#: parked by placement (and bounced by redirects).
WAIT_PAIRS = {"GroupRPC.call": "Deployment.call",
              "Deployment.call": "PlacementPlane.call"}

_OUTERS = set(WAIT_PAIRS.values())

#: Functions whose spans are also counted per operation (their first
#: argument), as ``<name>.<op>``: the base of the read-narrowing share.
BY_OP = {"ReplicaGroup.admit"}

#: How many recent sends are remembered to link a message's arrival to
#: the span that sent it.
_LINKS = 8192


class Span:
    __slots__ = ("id", "parent", "call", "name", "layer", "t0", "t1",
                 "active", "self_ns", "v0", "v1", "vinner")

    def __init__(self, sid: int, parent: int, call: int, name: str,
                 layer: str, v0: float):
        self.id = sid
        self.parent = parent
        self.call = call
        self.name = name
        self.layer = layer
        self.t0 = 0
        self.t1 = 0
        self.active = 0
        self.self_ns = 0
        self.v0 = v0
        self.v1 = v0
        self.vinner = 0.0


class Tracer:
    """Span store and the stack of spans running right now."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.recording = False
        #: The kernel whose virtual clock the spans read (set before
        #: recording starts).
        self.kernel: Any = None
        #: Frames: [span or None, entered_ns, child_ns, (span id, call)].
        #: A None frame carries only the context of a spawning span.
        self.stack: List[list] = []
        self.kept: List[tuple] = []
        self.layer_ns: Dict[str, int] = defaultdict(int)
        self.name_ns: Dict[str, int] = defaultdict(int)
        self.name_count: Dict[str, int] = defaultdict(int)
        #: outer span name -> [total virtual wait, calls that waited]
        self.waits: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self._links: "OrderedDict[int, tuple]" = OrderedDict()
        self._next_span = 1
        self._next_call = 1

    # -- spans ------------------------------------------------------------

    def context(self) -> Tuple[int, int]:
        stack = self.stack
        return stack[-1][3] if stack else (0, 0)

    def open(self, name: str, layer: str,
             ctx: Optional[Tuple[int, int]] = None) -> Span:
        parent, call = ctx if ctx is not None else self.context()
        if call == 0 and name in CALL_ENTRIES:
            call = self._next_call
            self._next_call += 1
        sid = self._next_span
        self._next_span += 1
        self.name_count[name] += 1
        return Span(sid, parent, call, name, layer, self.kernel.now)

    def enter(self, span: Span) -> None:
        now = perf_counter_ns()
        if not span.t0:
            span.t0 = now
        self.stack.append([span, now, 0, (span.id, span.call)])

    def exit(self) -> None:
        span, entered, child, _ = self.stack.pop()
        now = perf_counter_ns()
        elapsed = now - entered
        own = elapsed - child
        span.t1 = now
        span.active += elapsed
        span.self_ns += own
        self.layer_ns[span.layer] += own
        self.name_ns[span.name] += own
        if self.stack:
            self.stack[-1][2] += elapsed

    def enter_context(self, ctx: Tuple[int, int]) -> None:
        self.stack.append([None, 0, 0, ctx])

    def exit_context(self) -> None:
        child = self.stack.pop()[2]
        if self.stack:
            self.stack[-1][2] += child

    def finish(self, span: Span) -> None:
        span.v1 = self.kernel.now
        vdur = span.v1 - span.v0
        outer = WAIT_PAIRS.get(span.name)
        if outer is not None:
            for frame in reversed(self.stack):
                if frame[0] is not None and frame[0].name == outer:
                    frame[0].vinner += vdur
                    break
        if span.name in _OUTERS:
            wait = vdur - span.vinner
            entry = self.waits[span.name]
            if wait > 1e-12:
                entry[0] += wait
                entry[1] += 1
        if len(self.kept) < self.max_spans:
            self.kept.append((span.id, span.parent, span.call, span.name,
                              span.layer, span.t0, span.t1, span.active,
                              span.self_ns, span.v0, span.v1))

    # -- message links ------------------------------------------------------

    def note_send(self, payload: Any) -> None:
        links = self._links
        links[id(payload)] = (payload, self.context())
        if len(links) > _LINKS:
            links.popitem(last=False)

    def sender_of(self, payload: Any) -> Optional[Tuple[int, int]]:
        entry = self._links.get(id(payload))
        if entry is not None and entry[0] is payload:
            return entry[1]
        return None

    # -- output -------------------------------------------------------------

    def dump(self, path: str, origin_ns: int) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for (sid, parent, call, name, layer, t0, t1, active, own,
                 v0, v1) in self.kept:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "call": call,
                    "name": name, "layer": layer,
                    "start_us": round((t0 - origin_ns) / 1000, 3),
                    "end_us": round((t1 - origin_ns) / 1000, 3),
                    "active_us": round(active / 1000, 3),
                    "self_us": round(own / 1000, 3),
                    "vstart_ms": round(v0 * 1000, 6),
                    "vend_ms": round(v1 * 1000, 6)}) + "\n")


class _TimedCoro:
    """A coroutine whose every resume step is a timed frame of ``span``."""

    __slots__ = ("_coro", "_span", "_tracer")

    def __init__(self, coro: Any, span: Span, tracer: Tracer):
        self._coro = coro
        self._span = span
        self._tracer = tracer

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._step(self._coro.send, value)

    def throw(self, *args: Any) -> Any:
        return self._step(self._coro.throw, *args)

    def close(self) -> None:
        self._coro.close()

    def _step(self, resume: Any, *args: Any) -> Any:
        tracer = self._tracer
        if not tracer.recording:
            return resume(*args)
        tracer.enter(self._span)
        try:
            result = resume(*args)
        except BaseException:       # StopIteration included: it ended
            tracer.exit()
            tracer.finish(self._span)
            raise
        tracer.exit()
        return result


class _ContextCoro:
    """A spawned task's coroutine that resumes in its spawner's context,
    so spans it opens keep the spawner as parent and its call id."""

    __slots__ = ("_coro", "_ctx", "_tracer")

    def __init__(self, coro: Any, ctx: Tuple[int, int], tracer: Tracer):
        self._coro = coro
        self._ctx = ctx
        self._tracer = tracer

    def send(self, value: Any) -> Any:
        return self._step(self._coro.send, value)

    def throw(self, *args: Any) -> Any:
        return self._step(self._coro.throw, *args)

    def close(self) -> None:
        self._coro.close()

    def _step(self, resume: Any, *args: Any) -> Any:
        tracer = self._tracer
        if not tracer.recording:
            return resume(*args)
        tracer.enter_context(self._ctx)
        try:
            return resume(*args)
        finally:
            tracer.exit_context()


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _wrap_sync(fn: Any, name: str, layer: str, tracer: Tracer) -> Any:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording:
            return fn(*args, **kwargs)
        span = tracer.open(name, layer)
        tracer.enter(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            tracer.finish(span)
    return wrapper


def _wrap_async(fn: Any, name: str, layer: str, tracer: Tracer,
                arrival: bool = False) -> Any:
    by_op = name in BY_OP

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        coro = fn(*args, **kwargs)
        if not tracer.recording:
            return coro
        ctx = tracer.sender_of(args[1].payload) if arrival else None
        if by_op:
            tracer.name_count[f"{name}.{args[1]}"] += 1
        return _TimedCoro(coro, tracer.open(name, layer, ctx), tracer)
    return wrapper


def _wrap_spawn(fn: Any, name: str, layer: str, tracer: Tracer) -> Any:
    timed = _wrap_sync(fn, name, layer, tracer)

    @functools.wraps(fn)
    def wrapper(self: Any, coro: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.recording and tracer.stack:
            coro = _ContextCoro(coro, tracer.context(), tracer)
        return timed(self, coro, *args, **kwargs)
    return wrapper


def _wrap_send(fn: Any, name: str, layer: str, tracer: Tracer) -> Any:
    timed = _wrap_sync(fn, name, layer, tracer)

    @functools.wraps(fn)
    def wrapper(self: Any, src: Any, dst: Any, payload: Any,
                *args: Any, **kwargs: Any) -> Any:
        if tracer.recording:
            tracer.note_send(payload)
        return timed(self, src, dst, payload, *args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every public function of every layer; returns how many.

    Must run before the workload module (and the deployment) is
    imported or built.  Module-level functions are also re-pointed in
    every loaded ``repro`` module that imported them by name.
    """
    replaced: Dict[int, Any] = {}
    count = 0
    for layer, modules in LAYERS.items():
        for module_name in modules:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in SKIP:
                    continue
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    count += _wrap_class(obj, layer, tracer)
                elif (inspect.isfunction(obj)
                      and obj.__module__ == module_name
                      and not inspect.isgeneratorfunction(obj)):
                    wrapped = _wrap(obj, obj.__name__, layer, tracer)
                    setattr(module, attr, wrapped)
                    replaced[id(obj)] = (obj, wrapped)
                    count += 1
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return count


def _wrap_class(cls: type, layer: str, tracer: Tracer) -> int:
    count = 0
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") or attr in SKIP:
            continue
        if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
            continue        # properties, class/static methods, traps
        name = f"{cls.__qualname__}.{attr}"
        setattr(cls, attr, _wrap(obj, name, layer, tracer))
        count += 1
    return count


def _wrap(fn: Any, name: str, layer: str, tracer: Tracer) -> Any:
    if name in ("Kernel.spawn",):
        return _wrap_spawn(fn, name, layer, tracer)
    if name == "NetworkFabric.send":
        return _wrap_send(fn, name, layer, tracer)
    if inspect.iscoroutinefunction(fn):
        return _wrap_async(fn, name, layer, tracer,
                           arrival=name == "UnreliableTransport."
                                           "handle_arrival")
    return _wrap_sync(fn, name, layer, tracer)
