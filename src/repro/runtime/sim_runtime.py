"""Runtime adapter for the deterministic simulation kernel."""

from __future__ import annotations

from typing import Any, Callable, Coroutine

from repro.errors import NoCurrentTask, TaskCancelled
from repro.runtime.base import Runtime
from repro.sim import kernel as _kernel
from repro.sim.kernel import Kernel, Task, Timer
from repro.sim.sync import Event, Lock, Semaphore

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """The default runtime: virtual time, deterministic scheduling.

    Wraps a :class:`repro.sim.kernel.Kernel`.  Experiments construct one
    runtime, build the simulated network and protocol stacks against it,
    then drive it with :meth:`run`/:meth:`run_for`.
    """

    cancelled_exceptions = (TaskCancelled,)

    def __init__(self, kernel: Kernel | None = None):
        self.kernel = kernel or Kernel()

    # -- time -----------------------------------------------------------

    def now(self) -> float:
        return self.kernel.now

    async def sleep(self, delay: float) -> None:
        await _kernel.sleep(delay)

    def call_later(self, delay: float,
                   action: Callable[[], None]) -> Timer:
        return self.kernel.call_later(delay, action)

    # -- tasks ----------------------------------------------------------

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Task:
        return self.kernel.spawn(coro, name=name, daemon=daemon)

    def spawn_now(self, coro: Coroutine, *, name: str = "",
                  daemon: bool = False) -> Task:
        return self.kernel.spawn_now(coro, name=name, daemon=daemon)

    def cancel(self, handle: Task) -> None:
        handle.cancel()

    async def current_handle(self) -> Task:
        return await _kernel.current_task()

    def current_handle_nowait(self) -> Task:
        task = self.kernel._current
        if task is None:
            raise NoCurrentTask("no task is currently executing")
        return task

    async def join(self, handle: Task) -> Any:
        return await handle.join()

    # -- primitives -----------------------------------------------------

    def semaphore(self, value: int = 1) -> Semaphore:
        return Semaphore(value)

    def lock(self) -> Lock:
        return Lock()

    def event(self) -> Event:
        # Bound to the owning kernel so configuration actions (crash ->
        # promotion -> gate release) may set it between runs.
        return Event(kernel=self.kernel)

    # -- drivers (sim-only conveniences) --------------------------------

    def run(self, coro: Coroutine | None = None, *, strict: bool = True,
            shutdown: bool = True):
        """Run the kernel; see :meth:`repro.sim.kernel.Kernel.run`."""
        return self.kernel.run(coro, strict=strict, shutdown=shutdown)

    def run_for(self, duration: float, *, strict: bool = True) -> None:
        self.kernel.run_for(duration, strict=strict)

    def run_until_idle(self, *, strict: bool = True) -> None:
        self.kernel.run_until_idle(strict=strict)

    # -- observability ---------------------------------------------------

    def attach_profiler(self, profiler) -> None:
        """Install the profiler and hook the kernel's step path."""
        super().attach_profiler(profiler)
        self.kernel.profile_hook = (profiler.on_step
                                    if profiler is not None else None)

    def stats(self) -> dict:
        """The kernel's scheduler counters (steps, spawns, timer fires)."""
        return self.kernel.stats()
