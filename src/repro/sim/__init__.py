"""Deterministic cooperative simulation substrate.

The x-kernel platform the paper ran on is replaced by this package: a
virtual-time coroutine kernel (:mod:`repro.sim.kernel`), blocking
synchronization primitives matching the paper's ``P``/``V`` semaphores
(:mod:`repro.sim.sync`), and seeded random streams
(:mod:`repro.sim.rand`).
"""

from repro.sim.kernel import (
    Kernel,
    Task,
    Timer,
    checkpoint_yield,
    current_kernel,
    current_task,
    sleep,
    spawn,
)
from repro.sim.rand import RandomSource
from repro.sim.sync import Condition, Event, Lock, Semaphore

__all__ = [
    "Kernel",
    "Task",
    "Timer",
    "checkpoint_yield",
    "current_kernel",
    "current_task",
    "sleep",
    "spawn",
    "Condition",
    "Event",
    "Lock",
    "Semaphore",
    "RandomSource",
]
