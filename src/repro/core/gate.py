"""The call gate: the one parking mechanism of the control plane.

Adaptation (one gate per service, while a switch drains), placement
(one gate per plane, over the keys whose owner is moving) and replica
groups (one gate per group, while writes have no primary to go to) all
park calls the same way: a :class:`CallGate` closed with a predicate
over call keys.  A call :meth:`~CallGate.park`\\ s while its key is
blocked, then :meth:`~CallGate.enter`\\ s and :meth:`~CallGate.leave`\\ s
the guarded section, so the closer can :meth:`~CallGate.drain` the
blocked calls that passed the gate before it closed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

__all__ = ["CallGate", "everything"]


def everything(key: Any) -> bool:
    """The predicate of a gate that blocks every key."""
    return True


class CallGate:
    """Parks calls whose key is blocked; counts the calls inside."""

    def __init__(self, runtime: Any, metrics: Any, counter: str):
        self.runtime = runtime
        self._metrics = metrics
        #: Metric bumped once per wait (resolved at the first park, so
        #: a gate that never parks registers nothing).
        self._counter = counter
        #: Predicate over keys while closed; None while open.
        self.blocks: Optional[Callable[[Any], bool]] = None
        #: Waits since the last :meth:`close` of an open gate.
        self.parked = 0
        #: key -> calls currently inside the gate.
        self.inside: Dict[Any, int] = {}
        self._opened: Any = None
        self._drained: Any = None

    @property
    def closed(self) -> bool:
        return self.blocks is not None

    def close(self, blocks: Callable[[Any], bool] = everything) -> None:
        if self.blocks is None:
            self._opened = self.runtime.event()
            self.parked = 0
        self.blocks = blocks

    def open(self) -> None:
        opened, drained = self._opened, self._drained
        self.blocks = self._opened = self._drained = None
        if opened is not None:
            opened.set()
        if drained is not None:
            drained.set()

    async def park(self, key: Any) -> None:
        """Wait while ``key`` is blocked."""
        while self.blocks is not None and self.blocks(key):
            self.parked += 1
            self._metrics.counter(self._counter).inc()
            await self._opened.wait()

    def enter(self, key: Any) -> None:
        self.inside[key] = self.inside.get(key, 0) + 1

    def leave(self, key: Any) -> None:
        remaining = self.inside[key] - 1
        if remaining:
            self.inside[key] = remaining
        else:
            del self.inside[key]
        if self._drained is not None and not self._busy():
            drained, self._drained = self._drained, None
            drained.set()

    async def drain(self) -> None:
        """Wait until no call with a blocked key is inside."""
        while self._busy():
            self._drained = self.runtime.event()
            await self._drained.wait()

    def _busy(self) -> bool:
        blocks = self.blocks
        return blocks is not None and any(blocks(key) for key in self.inside)
