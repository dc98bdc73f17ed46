"""Event registration, triggering and handler dispatch (Section 3).

This is the runtime the paper's composite protocols are linked against.
It provides exactly the four framework operations of Section 3:

``register(event, handler, priority)``
    Request that ``handler`` run when ``event`` occurs.  For sequential
    events, handlers execute in ascending priority order; omitting the
    priority registers at the *lowest* priority (runs last).  Registering
    for the special :data:`TIMEOUT` event interprets the priority argument
    as a time interval and arms a **one-shot** timer, exactly as in the
    paper.

``trigger(event, *args)``
    Execute every handler registered for ``event``, passing ``args``.
    Dispatch is *sequential and blocking*: the handlers run one after
    another in the triggering task, and ``trigger`` returns when the last
    one finishes (or the event is cancelled).

``deregister(event, handler)``
    Reverse a registration (including a pending TIMEOUT).

``cancel_event()``
    Abort the remaining handlers of the event currently being dispatched
    in the calling task.  Callable synchronously from inside a handler, as
    the paper's micro-protocols do (``cancel_event(); exit()``).

The paper's model also defines the other dispatch modes: "the invocation
of event handlers ... can be sequential ... or concurrent — performed
concurrently with each event handler given its own thread of control.
The invocation itself can be blocking ... or non-blocking".  All four
combinations are provided (:meth:`EventBus.trigger`,
:meth:`EventBus.trigger_nonblocking`,
:meth:`EventBus.trigger_concurrent`); the micro-protocols of Section 4
use only blocking-sequential dispatch, and concurrency across *messages*
comes from each network arrival being dispatched in its own task.
``cancel_event`` affects only sequential dispatch, as the paper notes
("mostly useful for sequential events").
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.runtime.base import Runtime

__all__ = ["EventBus", "TIMEOUT", "LOWEST_PRIORITY", "Registration"]

#: The distinguished one-shot timer event (Section 3).
TIMEOUT = "TIMEOUT"

#: Default priority: runs after every explicitly prioritized handler.
LOWEST_PRIORITY = 1_000_000

#: Handlers are async callables taking the trigger's positional arguments.
Handler = Callable[..., Awaitable[None]]


def _handler_name(handler: Handler) -> str:
    """Qualified name for trace records (stable across bound methods)."""
    return getattr(handler, "__qualname__", repr(handler))


class Registration:
    """One (event, handler, priority) registration record."""

    __slots__ = ("event", "handler", "priority", "seq", "timer", "owner")

    def __init__(self, event: str, handler: Handler, priority: float,
                 seq: int, owner: str = ""):
        self.event = event
        self.handler = handler
        self.priority = priority
        self.seq = seq
        self.timer: Any = None  # only for TIMEOUT registrations
        #: Name of the micro-protocol that registered the handler
        #: ("" for framework/application registrations); the obs layer
        #: attributes dispatch records and handler timings to it.
        self.owner = owner

    def sort_key(self) -> Tuple[float, int]:
        return (self.priority, self.seq)


class _Dispatch:
    """Bookkeeping for one in-progress ``trigger`` call."""

    __slots__ = ("event", "cancelled")

    def __init__(self, event: str):
        self.event = event
        self.cancelled = False


class EventBus:
    """Per-composite-protocol event registry and dispatcher."""

    def __init__(self, runtime: Runtime, spawner: Optional[Callable] = None):
        self.runtime = runtime
        # Expired TIMEOUT handlers run in fresh tasks created through this
        # spawner; composites owned by a node pass a node-scoped spawner so
        # a site crash also kills its in-flight timeout handlers.
        self._spawn = spawner or runtime.spawn
        self._handlers: Dict[str, List[Registration]] = {}
        # Precompiled dispatch tables: event -> priority-ordered tuple of
        # registrations.  Built lazily on first trigger, invalidated by
        # register/deregister/clear; ``trigger`` then dispatches straight
        # off the immutable tuple instead of copying the handler list on
        # every call (the tuple IS the snapshot).
        self._tables: Dict[str, Tuple[Registration, ...]] = {}
        self._seq = 0
        # Stack of active dispatches per task, keyed by id(task handle),
        # so cancel_event() from interleaved tasks cannot cross wires.
        self._active: Dict[int, List[_Dispatch]] = {}
        # Free lists for the untraced trigger fast path: steady-state
        # dispatch pays zero allocations (recycled _Dispatch records and
        # per-task stack lists).  Bounded so a burst cannot pin memory.
        self._dispatch_pool: List[_Dispatch] = []
        self._stack_pool: List[List[_Dispatch]] = []
        # Armed TIMEOUT registrations keyed by registration seq
        # (insertion-ordered).  A dict so :meth:`disarm` — called once
        # per completed bounded call — is O(1) instead of a list scan.
        self._timeout_regs: Dict[int, Registration] = {}
        # Owners whose registrations have been retired by a live
        # adaptation (:meth:`retire_owner`).  Self-rearming handlers of a
        # removed micro-protocol (Reliable Communication's retransmit
        # loop, Probe Orphan's probe rounds) may still be mid-flight when
        # the owner is retired; their re-registration attempts land here
        # and are dropped, so a swapped-out protocol cannot ghost its
        # timers back into the bus.  Empty for never-adapted composites.
        self._retired_owners: set = set()
        # Observability: the recorder is resolved ONCE here (attach-time
        # check; see Runtime.attach_obs).  ``None`` keeps every dispatch
        # on the untraced fast path.
        self._obs = getattr(runtime, "obs", None)
        #: Process id of the owning node, for trace attribution;
        #: composites bound to a node set this (-1 = unowned bus).
        self.node_id = -1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, event: str, handler: Handler,
                 priority: Optional[float] = None, *,
                 owner: str = "") -> Registration:
        """Register ``handler`` for ``event``.

        For ordinary events ``priority`` orders handlers (lower runs
        earlier; ``None`` means lowest).  For :data:`TIMEOUT`, ``priority``
        is the timeout interval in seconds and the handler will run exactly
        once, ``interval`` from now, unless deregistered first.
        ``owner`` names the registering micro-protocol for trace
        attribution (filled in by :meth:`MicroProtocol.register`).
        """
        self._seq += 1
        if owner and owner in self._retired_owners:
            # A retired owner's in-flight handler trying to re-arm
            # itself; hand back an inert registration (never dispatched,
            # no timer armed) so the caller's code path stays unchanged.
            return Registration(event, handler,
                                float(priority or 0.0), self._seq, owner)
        if event == TIMEOUT:
            if priority is None:
                raise KernelError("TIMEOUT registration requires an interval")
            reg = Registration(event, handler, float(priority), self._seq,
                               owner)
            reg.timer = self.runtime.call_later(
                float(priority), lambda: self._fire_timeout(reg))
            self._timeout_regs[reg.seq] = reg
            if self._obs is not None:
                self._obs.record_event(
                    "register", node=self.node_id, event=TIMEOUT,
                    owner=owner, handler=_handler_name(handler),
                    interval=float(priority))
            return reg
        if priority is None:
            priority = LOWEST_PRIORITY
        reg = Registration(event, handler, float(priority), self._seq,
                           owner)
        self._handlers.setdefault(event, []).append(reg)
        self._handlers[event].sort(key=Registration.sort_key)
        self._tables.pop(event, None)
        if self._obs is not None:
            self._obs.record_event(
                "register", node=self.node_id, event=event, owner=owner,
                handler=_handler_name(handler), priority=float(priority))
        return reg

    def deregister(self, event: str, handler: Handler) -> bool:
        """Remove the first registration matching (event, handler).

        Returns True if a registration was removed.  Deregistering a
        pending TIMEOUT cancels its timer.
        """
        if event == TIMEOUT:
            for reg in self._timeout_regs.values():
                if reg.handler == handler:
                    reg.timer.cancel()
                    del self._timeout_regs[reg.seq]
                    self._record_deregister(reg)
                    return True
            return False
        regs = self._handlers.get(event, [])
        for reg in regs:
            if reg.handler == handler:
                regs.remove(reg)
                self._tables.pop(event, None)
                self._record_deregister(reg)
                return True
        return False

    def _record_deregister(self, reg: Registration) -> None:
        if self._obs is not None:
            self._obs.record_event(
                "deregister", node=self.node_id, event=reg.event,
                owner=reg.owner, handler=_handler_name(reg.handler))

    def registrations(self, event: str) -> List[Registration]:
        """The current registrations for ``event`` in dispatch order."""
        return list(self._handlers.get(event, []))

    def registration_table(self) -> Dict[str, List[str]]:
        """Event -> ordered handler names; regenerates Figure 3's wiring."""
        table = {}
        for event, regs in sorted(self._handlers.items()):
            table[event] = [getattr(r.handler, "__qualname__",
                                    repr(r.handler)) for r in regs]
        return table

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------

    async def trigger(self, event: str, *args: Any) -> bool:
        """Run all handlers for ``event`` sequentially, in priority order.

        Returns ``True`` if every handler ran, ``False`` if some handler
        cancelled the event.  The handler list is snapshotted at trigger
        time, so registrations made by handlers take effect from the next
        occurrence of the event (the precompiled table is an immutable
        tuple, so the snapshot is free: a registration mid-dispatch swaps
        in a new table while the in-flight loop keeps the old one).
        """
        if self._obs is not None:
            return await self._trigger_traced(event, *args)
        table = self._tables.get(event)
        if table is None:
            table = self._compile(event)
        if not table:
            return True
        # Recycle dispatch records and stack lists: in steady state the
        # untraced path allocates nothing per trigger.
        pool = self._dispatch_pool
        if pool:
            dispatch = pool.pop()
            dispatch.event = event
            dispatch.cancelled = False
        else:
            dispatch = _Dispatch(event)
        task_key = id(self.runtime.current_handle_nowait())
        stack = self._active.get(task_key)
        if stack is None:
            stacks = self._stack_pool
            stack = stacks.pop() if stacks else []
            self._active[task_key] = stack
        stack.append(dispatch)
        try:
            if len(table) == 1:
                # Single-handler case dominates micro-protocol
                # composition; skip the loop (cancelled is always False
                # on entry — cancel_event still works via the stack).
                await table[0].handler(*args)
            else:
                for reg in table:
                    if dispatch.cancelled:
                        break
                    await reg.handler(*args)
        finally:
            self._pop_dispatch(task_key, stack, dispatch)
            cancelled = dispatch.cancelled
            if len(pool) < 16:
                pool.append(dispatch)
        return not cancelled

    def _compile(self, event: str) -> Tuple[Registration, ...]:
        """Build and cache the dispatch table for ``event``."""
        table = tuple(self._handlers.get(event, ()))
        self._tables[event] = table
        return table

    async def _trigger_traced(self, event: str, *args: Any) -> bool:
        """The traced twin of :meth:`trigger`: identical semantics, plus
        one structured record (with virtual-time duration, owner and
        priority) per handler invocation."""
        obs = self._obs
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
                start = self.runtime.now()
                await reg.handler(*args)
                obs.record_handler(
                    event, reg.owner, _handler_name(reg.handler),
                    reg.priority, start, self.runtime.now(),
                    node=self.node_id, cancelled=dispatch.cancelled)
        finally:
            self._pop_dispatch(task_key, stack, dispatch)
        return not dispatch.cancelled

    def _pop_dispatch(self, task_key: int, stack: List[_Dispatch],
                      dispatch: _Dispatch) -> None:
        """Unwind one dispatch record, tolerating crash teardown.

        A node crash clears ``_active`` while cancelled tasks are still
        unwinding their ``trigger`` calls, so the record (or the whole
        stack) may already be gone.
        """
        if dispatch in stack:
            stack.remove(dispatch)
        if not stack and self._active.get(task_key) is stack:
            self._active.pop(task_key, None)
            if len(self._stack_pool) < 16:
                self._stack_pool.append(stack)

    def trigger_nonblocking(self, event: str, *args: Any) -> None:
        """Sequential dispatch in a fresh task; the caller continues.

        The paper's non-blocking invocation: "the invoker continues
        execution without waiting".  Handler order and ``cancel_event``
        semantics are identical to :meth:`trigger`; only the caller's
        synchrony changes.
        """
        self._spawn(self.trigger(event, *args),
                    name=f"nb-{event}", daemon=True)

    async def trigger_concurrent(self, event: str, *args: Any,
                                 blocking: bool = True) -> None:
        """Run every registered handler in its own task.

        The paper's concurrent invocation: "performed concurrently with
        each event handler given its own thread of control".  With
        ``blocking=True`` the caller "waits until all the event handlers
        registered for the event have finished execution"; with
        ``blocking=False`` it continues immediately.  ``cancel_event``
        inside a concurrent handler affects only that handler's own
        chain — there is no shared sequence to abort.
        """
        snapshot = list(self._handlers.get(event, []))
        handles = [
            self._spawn(self._run_concurrent(event, reg, args),
                        name=f"cc-{event}-{reg.seq}", daemon=True)
            for reg in snapshot
        ]
        if blocking:
            for handle in handles:
                if handle is not None:
                    await self.runtime.join(handle)

    async def _run_concurrent(self, event: str, reg: Registration,
                              args: tuple) -> None:
        dispatch = _Dispatch(event)
        task_key = id(self.runtime.current_handle_nowait())
        stack = self._active.setdefault(task_key, [])
        stack.append(dispatch)
        obs = self._obs
        start = self.runtime.now() if obs is not None else 0.0
        try:
            await reg.handler(*args)
        finally:
            self._pop_dispatch(task_key, stack, dispatch)
            if obs is not None:
                obs.record_handler(
                    event, reg.owner, _handler_name(reg.handler),
                    reg.priority, start, self.runtime.now(),
                    node=self.node_id, cancelled=dispatch.cancelled)

    def cancel_event(self) -> None:
        """Cancel the event currently dispatching in the calling task.

        The remaining handlers registered for this occurrence are skipped.
        Mirrors the paper's ``cancel_event()`` framework operation; a
        handler typically follows it with ``return`` (the paper's
        ``exit()``).
        """
        task_key = id(self.runtime.current_handle_nowait())
        stack = self._active.get(task_key)
        if not stack:
            raise KernelError("cancel_event() outside of event dispatch")
        stack[-1].cancelled = True
        if self._obs is not None:
            self._obs.record_event("cancel_event", node=self.node_id,
                                   event=stack[-1].event)

    def in_dispatch(self) -> Optional[str]:
        """Name of the event the calling task is dispatching, if any."""
        task_key = id(self.runtime.current_handle_nowait())
        stack = self._active.get(task_key)
        return stack[-1].event if stack else None

    # ------------------------------------------------------------------
    # TIMEOUT plumbing
    # ------------------------------------------------------------------

    def disarm(self, reg: Registration) -> bool:
        """Disarm one pending TIMEOUT registration in O(1).

        The handle-based twin of ``deregister(TIMEOUT, handler)`` for
        callers that kept the :class:`Registration` — per-call bounds
        (Bounded Termination) disarm thousands of these on the hot path,
        where the handler-equality scan would be quadratic.  Idempotent;
        returns True if the registration was still armed.
        """
        if self._timeout_regs.pop(reg.seq, None) is None:
            return False
        reg.timer.cancel()
        self._record_deregister(reg)
        return True

    def _fire_timeout(self, reg: Registration) -> None:
        if self._timeout_regs.pop(reg.seq, None) is None:
            return
        self._spawn(self._run_timeout(reg),
                    name=f"timeout-{reg.seq}", daemon=True)

    async def _run_timeout(self, reg: Registration) -> None:
        """Run one expired TIMEOUT handler as its own (cancellable) event."""
        dispatch = _Dispatch(TIMEOUT)
        task_key = id(self.runtime.current_handle_nowait())
        stack = self._active.setdefault(task_key, [])
        stack.append(dispatch)
        obs = self._obs
        start = self.runtime.now() if obs is not None else 0.0
        try:
            await reg.handler()
        finally:
            self._pop_dispatch(task_key, stack, dispatch)
            if obs is not None:
                obs.record_handler(
                    TIMEOUT, reg.owner, _handler_name(reg.handler),
                    reg.priority, start, self.runtime.now(),
                    node=self.node_id, cancelled=dispatch.cancelled)

    # ------------------------------------------------------------------
    # Owner retirement (live adaptation)
    # ------------------------------------------------------------------

    def retire_owner(self, owner: str) -> int:
        """Remove every registration tagged ``owner`` and bar new ones.

        The bus half of swapping a micro-protocol out of a running
        composite: all its event handlers are deregistered, its pending
        TIMEOUTs disarmed, and — until :meth:`unretire_owner` — any
        re-registration attempt from a still-unwinding handler of that
        owner is silently dropped.  Returns the number of registrations
        removed.  ``owner`` must be non-empty (framework registrations
        carry no owner and are never retired).
        """
        if not owner:
            raise KernelError("retire_owner() requires a non-empty owner")
        removed = 0
        for event, regs in list(self._handlers.items()):
            kept = [reg for reg in regs if reg.owner != owner]
            if len(kept) != len(regs):
                removed += len(regs) - len(kept)
                self._handlers[event] = kept
                self._tables.pop(event, None)
        for seq, reg in list(self._timeout_regs.items()):
            if reg.owner == owner:
                reg.timer.cancel()
                del self._timeout_regs[seq]
                removed += 1
        self._retired_owners.add(owner)
        if self._obs is not None:
            self._obs.record_event("retire_owner", node=self.node_id,
                                   owner=owner, removed=removed)
        return removed

    def unretire_owner(self, owner: str) -> None:
        """Allow ``owner`` to register again (it is being swapped in)."""
        self._retired_owners.discard(owner)

    def pending_timeouts(self) -> int:
        """Number of armed TIMEOUT registrations (test/debug aid)."""
        return len(self._timeout_regs)

    def cancel_pending_timeouts(self) -> None:
        """Disarm every pending TIMEOUT (part of crash teardown)."""
        for reg in self._timeout_regs.values():
            reg.timer.cancel()
        self._timeout_regs.clear()

    def clear(self) -> None:
        """Drop every registration and cancel pending timers.

        Used when a node crashes: the composite protocol's volatile wiring
        is rebuilt from scratch on recovery.
        """
        self._handlers.clear()
        self._tables.clear()
        for reg in self._timeout_regs.values():
            reg.timer.cancel()
        self._timeout_regs.clear()
        self._active.clear()
