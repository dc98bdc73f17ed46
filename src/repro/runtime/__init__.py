"""Runtime abstraction over the sim kernel and asyncio."""

from repro.runtime.asyncio_runtime import AsyncioRuntime
from repro.runtime.base import CancelScope, Runtime, deferred
from repro.runtime.sim_runtime import SimRuntime

__all__ = ["Runtime", "CancelScope", "SimRuntime", "AsyncioRuntime",
           "deferred"]
