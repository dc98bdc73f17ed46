"""Runtime adapter for ``asyncio`` (real-time execution).

Lets the exact same micro-protocol code that runs on the deterministic
simulator run in wall-clock time on the standard library event loop.  Used
by the live demo example and by a small set of cross-runtime tests; the
experiments all use :class:`repro.runtime.sim_runtime.SimRuntime` for
determinism.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Coroutine, Optional

from repro.runtime.base import Runtime

__all__ = ["AsyncioRuntime"]


class _AsyncioSemaphore:
    """Adapter giving ``asyncio.Semaphore`` the sim semaphore's surface.

    Adds ``value``, ``reset`` and non-async ``release`` matching
    :class:`repro.sim.sync.Semaphore`, which the micro-protocols rely on.
    """

    def __init__(self, value: int = 1):
        self._sem = asyncio.Semaphore(value)
        self._count = value

    @property
    def value(self) -> int:
        return max(0, self._count)

    def locked(self) -> bool:
        return self._sem.locked()

    async def acquire(self) -> None:
        await self._sem.acquire()
        self._count -= 1

    def release(self) -> None:
        self._count += 1
        self._sem.release()

    def reset(self, value: int) -> None:
        # Release enough permits to reach the requested level.  asyncio has
        # no public way to revoke permits, so reset only grows the counter —
        # sufficient for the recovery paths that use it (reset to free).
        while self._count < value:
            self.release()

    async def __aenter__(self) -> "_AsyncioSemaphore":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self.release()


class AsyncioRuntime(Runtime):
    """Real-time runtime over the running asyncio event loop."""

    cancelled_exceptions = (asyncio.CancelledError,)

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        self._loop = loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    # -- time -----------------------------------------------------------

    def now(self) -> float:
        return self.loop.time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def call_later(self, delay: float, action: Callable[[], None]) -> Any:
        return self.loop.call_later(delay, action)

    # -- tasks ----------------------------------------------------------

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> asyncio.Task:
        task = self.loop.create_task(coro, name=name or None)
        if daemon:
            # Swallow the inevitable CancelledError at teardown.
            task.add_done_callback(_consume_cancellation)
        return task

    def cancel(self, handle: asyncio.Task) -> None:
        handle.cancel()

    async def current_handle(self) -> asyncio.Task:
        task = asyncio.current_task()
        assert task is not None
        return task

    def current_handle_nowait(self) -> asyncio.Task:
        task = asyncio.current_task()
        assert task is not None
        return task

    async def join(self, handle: asyncio.Task) -> Any:
        return await handle

    # -- primitives -----------------------------------------------------

    def semaphore(self, value: int = 1) -> _AsyncioSemaphore:
        return _AsyncioSemaphore(value)

    def lock(self) -> _AsyncioSemaphore:
        return _AsyncioSemaphore(1)

    def event(self) -> asyncio.Event:
        return asyncio.Event()

    # -- observability ---------------------------------------------------

    def stats(self) -> dict:
        """Loop-level counters (coarser than the sim kernel's: asyncio
        exposes no step counts, so report time and live task count)."""
        try:
            return {"now": self.now(),
                    "tasks_live": len(asyncio.all_tasks(self.loop))}
        except RuntimeError:  # no loop running yet
            return {}


def _consume_cancellation(task: asyncio.Task) -> None:
    if task.cancelled():
        return
    exc = task.exception()
    if exc is not None:  # pragma: no cover - surfaced for debugging
        raise exc
