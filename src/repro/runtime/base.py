"""Runtime abstraction: one interface over the sim kernel and asyncio.

The paper's micro-protocols are written once and composed into different
services; we additionally make them *runtime portable* — the same protocol
code runs on the deterministic virtual-time kernel (for tests, experiments
and benchmarks) or on ``asyncio`` in real time (for the live demo example).

Protocol code must obtain every primitive it blocks on from the runtime
(``rt.semaphore()``, ``rt.event()``, ``await rt.sleep(...)``); never mix
primitives from different runtimes.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Coroutine, Tuple

__all__ = ["Runtime", "CancelScope", "deferred"]


class Runtime(abc.ABC):
    """Factory and scheduler facade used by all protocol code."""

    #: Exception classes that signal task cancellation on this runtime.
    cancelled_exceptions: Tuple[type, ...] = ()

    #: The attached observability recorder; ``None`` when disabled.
    _obs: Any = None

    #: The attached kernel profiler; ``None`` when disabled.
    _profiler: Any = None

    # -- observability ---------------------------------------------------

    def attach_obs(self, recorder: Any) -> None:
        """Install an observability recorder for this runtime's stacks.

        The enabled check happens HERE, once: a disabled (or ``None``)
        recorder is stored as ``None``, and every instrumented component
        (event buses, composites, the fabric) captures that reference at
        construction time — so the disabled hot path is a single
        ``is None`` test.  Attach before building protocol stacks.
        """
        if recorder is not None and getattr(recorder, "enabled", False):
            self._obs = recorder
            recorder.bind(self)
        else:
            self._obs = None

    @property
    def obs(self) -> Any:
        """The enabled recorder, or ``None`` (tracing disabled)."""
        return self._obs

    def attach_profiler(self, profiler: Any) -> None:
        """Install a :class:`~repro.obs.profiler.KernelProfiler`.

        Concrete runtimes hook their scheduler's step path.
        """
        self._profiler = profiler

    @property
    def profiler(self) -> Any:
        """The attached profiler, or ``None`` (profiling disabled)."""
        return self._profiler

    def stats(self) -> dict:
        """Scheduler-level counters for the metrics exporters.

        Concrete runtimes override this with whatever their scheduler
        can cheaply report (the sim kernel: steps, spawns, timer fires).
        """
        return {}

    # -- time -----------------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""

    @abc.abstractmethod
    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds."""

    @abc.abstractmethod
    def call_later(self, delay: float, action: Callable[[], None]) -> Any:
        """Schedule a plain callable; returns a handle with ``cancel()``."""

    # -- tasks ----------------------------------------------------------

    @abc.abstractmethod
    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Any:
        """Start a task; returns a handle usable with :meth:`cancel`."""

    def spawn_now(self, coro: Coroutine, *, name: str = "",
                  daemon: bool = False) -> Any:
        """:meth:`spawn`, running the first step at once when the
        scheduler is idle (the sim kernel); asyncio just spawns."""
        return self.spawn(coro, name=name, daemon=daemon)

    @abc.abstractmethod
    def cancel(self, handle: Any) -> None:
        """Cancel a task previously returned by :meth:`spawn`."""

    @abc.abstractmethod
    async def current_handle(self) -> Any:
        """Handle for the calling task (the paper's ``my_thread()``)."""

    @abc.abstractmethod
    def current_handle_nowait(self) -> Any:
        """Synchronous variant of :meth:`current_handle`.

        Only valid while a task is actually executing (e.g. from within an
        event handler); used by the framework's ``cancel_event`` which the
        paper specifies as a plain (non-blocking) operation.
        """

    @abc.abstractmethod
    async def join(self, handle: Any) -> Any:
        """Wait for a task to finish; returns its result."""

    # -- primitives -----------------------------------------------------

    @abc.abstractmethod
    def semaphore(self, value: int = 1) -> Any:
        """A counting semaphore with ``acquire``/``release``/``reset``."""

    @abc.abstractmethod
    def lock(self) -> Any:
        """A mutex (binary semaphore)."""

    @abc.abstractmethod
    def event(self) -> Any:
        """A one-shot event with ``set``/``wait``/``is_set``."""


class CancelScope:
    """Tracks spawned task handles so a group can be torn down together.

    Simulated node crashes use one scope per node: crash = cancel every
    handle registered in the scope.  Handles that finish are pruned lazily.
    """

    def __init__(self, runtime: Runtime):
        self._runtime = runtime
        self._handles: list[Any] = []
        # Prune finished handles once the list reaches this length, then
        # re-arm at twice the surviving count: amortized O(1) per spawn,
        # and a long-lived node's scope stays proportional to its *live*
        # tasks instead of retaining every task it ever ran (a per-message
        # task model spawns millions over a long run; keeping them all
        # also inflates every gc generation-2 sweep).
        self._prune_at = 64
        # >0 while a spawn_now task runs its first step: no pruning, so
        # its slot in the list stays where spawn_now marked it.
        self._hold = 0
        # Bumped by cancel_all (a crash during that first step).
        self._generation = 0

    @staticmethod
    def _finished(handle: Any) -> bool:
        done = getattr(handle, "done", None)
        if callable(done):  # asyncio.Task.done()
            return done()
        return bool(done)   # sim Task.done property

    def _register(self, handle: Any) -> None:
        handles = self._handles
        handles.append(handle)
        if len(handles) >= self._prune_at and not self._hold:
            finished = self._finished
            self._handles = [h for h in handles if not finished(h)]
            self._prune_at = max(64, 2 * len(self._handles))

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Any:
        handle = self._runtime.spawn(coro, name=name, daemon=daemon)
        self._register(handle)
        return handle

    def spawn_now(self, coro: Coroutine, *, name: str = "",
                  daemon: bool = False) -> Any:
        """:meth:`Runtime.spawn_now` under this scope.  A task done after
        its first step (most message arrivals) is never registered; one
        still alive is inserted where :meth:`spawn` would have put it,
        ahead of anything it spawned, so crashes cancel in spawn order."""
        handles = self._handles
        mark = len(handles)
        generation = self._generation
        self._hold += 1
        try:
            handle = self._runtime.spawn_now(coro, name=name, daemon=daemon)
        finally:
            self._hold -= 1
        if not self._finished(handle):
            if generation != self._generation:
                self._runtime.cancel(handle)
            else:
                handles.insert(mark, handle)
        return handle

    def adopt(self, handle: Any) -> None:
        """Register an externally spawned handle with this scope."""
        self._register(handle)

    def cancel_all(self) -> int:
        """Cancel every live handle; returns how many were cancelled."""
        cancelled = 0
        for handle in self._handles:
            if not self._finished(handle):
                self._runtime.cancel(handle)
                cancelled += 1
        self._handles.clear()
        self._prune_at = 64
        self._generation += 1
        return cancelled


class _Deferred:
    """A coroutine made on its first resume (see :func:`deferred`)."""

    __slots__ = ("_make", "_coro")

    def __init__(self, make: Callable[[], Coroutine]):
        self._make = make
        self._coro: Any = None

    def __await__(self) -> "_Deferred":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        coro = self._coro
        if coro is None:
            coro = self._coro = self._make()
        return coro.send(value)

    def throw(self, exc: Any, *args: Any) -> Any:
        if self._coro is None:      # never started: end before any code
            raise exc
        return self._coro.throw(exc, *args)

    def close(self) -> None:
        if self._coro is not None:
            self._coro.close()


def deferred(fn: Callable[..., Coroutine], *args: Any) -> Any:
    """A coroutine for ``fn(*args)``, created only when its task first
    runs.  Setup code spawns long-lived loops with it: a simulation that
    is never driven then leaves no unstarted coroutine for the garbage
    collector to report as "never awaited"."""
    return _Deferred(lambda: fn(*args))
