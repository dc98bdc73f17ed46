"""Zero-overhead-when-disabled guard for the observability layer.

The obs contract: instrumented components resolve the recorder ONCE (at
attach/construction time) and a disabled deployment pays a single
``is None`` test per dispatch.  This module guards that contract two
ways:

* structurally — a disabled recorder is never installed, nothing records;
* empirically — the event-dispatch hot loop with tracing disabled stays
  within 5% of a baseline running the pre-instrumentation trigger loop
  (the exact code minus the ``_obs`` check), using interleaved min-of-k
  timing so scheduler noise cancels.
"""

import time

import pytest

from repro.core.events import EventBus, _Dispatch
from repro.obs import Recorder
from repro.runtime import SimRuntime

TRIGGERS = 2000
SAMPLES = 5
ATTEMPTS = 3
THRESHOLD = 1.05


async def _raw_trigger(self, event, *args):
    """The pre-instrumentation trigger loop: EventBus.trigger exactly as
    it stood before the obs layer, without the ``_obs`` check."""
    snapshot = list(self._handlers.get(event, []))
    if not snapshot:
        return True
    dispatch = _Dispatch(event)
    task_key = id(self.runtime.current_handle_nowait())
    stack = self._active.setdefault(task_key, [])
    stack.append(dispatch)
    try:
        for reg in snapshot:
            if dispatch.cancelled:
                break
            await reg.handler(*args)
    finally:
        self._pop_dispatch(task_key, stack, dispatch)
    return not dispatch.cancelled


def _dispatch_loop_seconds(*, raw: bool) -> float:
    """Wall-clock for TRIGGERS sequential dispatches of 3 handlers."""
    runtime = SimRuntime()
    runtime.attach_obs(Recorder(enabled=False))  # the disabled path
    bus = EventBus(runtime)
    hits = []

    async def handler(arg):
        hits.append(arg)

    for prio in (1, 2, 3):
        bus.register("EVT", handler, prio, owner=f"micro-{prio}")

    trigger = _raw_trigger.__get__(bus) if raw else bus.trigger

    async def loop():
        for i in range(TRIGGERS):
            await trigger("EVT", i)

    start = time.perf_counter()
    runtime.run(loop())
    elapsed = time.perf_counter() - start
    assert len(hits) == 3 * TRIGGERS  # both variants did the same work
    return elapsed


def test_disabled_recorder_is_never_installed():
    runtime = SimRuntime()
    spy = Recorder(enabled=False)
    runtime.attach_obs(spy)
    assert runtime.obs is None
    bus = EventBus(runtime)
    assert bus._obs is None  # dispatch stays on the untraced branch

    async def noop():
        pass

    bus.register("EVT", noop, 1, owner="micro")
    runtime.run(bus.trigger("EVT"))
    assert spy.spans == [] and spy.events == []
    assert spy.metrics.snapshot()["histograms"] == {}


def test_enabled_recorder_is_installed():
    runtime = SimRuntime()
    rec = Recorder()
    runtime.attach_obs(rec)
    assert runtime.obs is rec
    assert EventBus(runtime)._obs is rec


def test_observatory_hooks_absent_by_default():
    """Every observatory seam holds None unless observatory=True.

    The profiler, the SLO tracker, the flight recorder and the load
    tracker each ride an attach-once hook; a default deployment must
    leave all of them unresolved so the hot paths stay on their single
    ``is None`` test (kernel step, event dispatch, wire send, route,
    call return, marshal).
    """
    import importlib

    from repro import Deployment

    deployment = Deployment()
    assert deployment.observatory is None
    assert deployment.flight is None       # rebinds go untaped
    assert deployment._slo is None         # call latencies unobserved
    assert deployment.runtime.profiler is None
    assert deployment.runtime.kernel.profile_hook is None
    assert deployment.fabric.pipeline.flight is None
    marshal = importlib.import_module("repro.stubs.marshal")
    assert marshal._PROFILER is None
    bus = EventBus(deployment.runtime)
    assert bus._obs is None
    deployment.shutdown()


def test_disabled_marshal_loop_does_not_profile():
    """The marshaller's module-global hook: nothing recorded, and the
    disabled loop costs a single global read per call."""
    import importlib

    marshal = importlib.import_module("repro.stubs.marshal")
    assert marshal._PROFILER is None
    payload = {"key": "k", "value": list(range(8))}
    for _ in range(100):
        marshal.unmarshal(marshal.marshal(payload))
    assert marshal._PROFILER is None       # round-trips installed nothing


def test_disabled_dispatch_overhead_under_5_percent():
    # Interleaved min-of-k: the minimum over several alternating samples
    # discards scheduler interference; retry the whole comparison a
    # couple of times before declaring a real regression.
    for attempt in range(ATTEMPTS):
        baseline, guarded = [], []
        for _ in range(SAMPLES):
            baseline.append(_dispatch_loop_seconds(raw=True))
            guarded.append(_dispatch_loop_seconds(raw=False))
        ratio = min(guarded) / min(baseline)
        if ratio < THRESHOLD:
            break
    assert ratio < THRESHOLD, (
        f"disabled-tracing dispatch is {ratio:.3f}x the raw baseline "
        f"(limit {THRESHOLD}); the disabled hot path must stay a single "
        f"is-None check")
