"""Call Observer (extension): protocol-level tracing as a micro-protocol.

The framework's composition model makes *observation* just another
micro-protocol: this one registers read-only handlers at the extreme
priorities of every event and records a per-call timeline — when the
call entered gRPC, every network message it generated, when each server
executed it, and when the client thread resumed.  Linking it into a
composite changes no behavior (it never writes shared state, never
cancels events), which the test suite verifies.

All observers in one deployment share a :class:`CallTraceLog`; query it
by call identity for a timeline or ask for summary statistics (e.g.
execution fan-out per call), as the quickstart example does.

Each observation is an :class:`~repro.obs.recorder.EventRecord` (the
point's ``kind``, the observing node, and ``key``/``detail`` fields).
When the deployment has the observability layer enabled, the log also
hands every record to the shared :class:`~repro.obs.recorder.Recorder`,
so the exported JSONL trace carries the protocol-level timeline
alongside the span tree.  The query API (:meth:`~CallTraceLog.timeline`
&c.) is the same either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.grpc import (
    CALL_FROM_USER,
    MSG_FROM_NETWORK,
    NEW_RPC_CALL,
    REPLY_FROM_SERVER,
)
from repro.core.messages import CallKey, NetMsg, NetOp, UserMsg, UserOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.obs import EventRecord, register_protocol

__all__ = ["CallTraceLog", "CallObserver"]

#: Observation priorities bracketing every real handler.
_FIRST = -1_000.0
_LAST = 2_000_000.0


class CallTraceLog:
    """Shared sink for every observer in a deployment.

    Optionally hands every record to an enabled
    :class:`~repro.obs.recorder.Recorder`; pass ``recorder=None`` for
    the standalone behavior.
    """

    def __init__(self, recorder: Any = None) -> None:
        self._points: Dict[CallKey, List[EventRecord]] = {}
        self.recorder = (recorder if recorder is not None
                         and getattr(recorder, "enabled", False) else None)

    def record(self, time: float, node: int, kind: str, key: CallKey,
               detail: Any = None) -> None:
        point = EventRecord(time, kind, node,
                            {"key": key, "detail": detail})
        self._points.setdefault(key, []).append(point)
        if self.recorder is not None:
            self.recorder.add(point)

    def timeline(self, key: CallKey) -> List[EventRecord]:
        """All observations of one call, in time order."""
        return sorted(self._points.get(key, []),
                      key=lambda p: (p.time, p.node))

    def calls(self) -> List[CallKey]:
        return list(self._points)

    def executions(self, key: CallKey) -> List[EventRecord]:
        return [p for p in self.timeline(key) if p.kind == "executed"]

    def first_execution_latency(self, key: CallKey) -> Optional[float]:
        """Seconds from issue to the first server execution."""
        issued = next((p.time for p in self.timeline(key)
                       if p.kind == "issued"), None)
        executed = next((p.time for p in self.timeline(key)
                         if p.kind == "executed"), None)
        if issued is None or executed is None:
            return None
        return executed - issued

    def format_timeline(self, key: CallKey) -> str:
        """A human-readable per-call timeline (used by examples)."""
        lines = [f"call {key}:"]
        for p in self.timeline(key):
            detail = p.fields["detail"]
            lines.append(f"  {p.time * 1000:9.2f} ms  node {p.node:<4} "
                         f"{p.kind}"
                         + (f"  {detail}" if detail is not None else ""))
        return "\n".join(lines)


class CallObserver(GRPCMicroProtocol):
    """Read-only tracer; link one instance per composite."""

    protocol_name = "Call_Observer"

    def __init__(self, log: CallTraceLog):
        super().__init__()
        self.log = log
        # (time, op) of issues waiting for their call id (FIFO: ids are
        # assigned under the pRPC mutex in the same order the chains
        # entered).
        self._pending_issues: List[Tuple[float, Any]] = []

    def configure(self) -> None:
        self.register(CALL_FROM_USER, self.on_issue, _FIRST)
        self.register(CALL_FROM_USER, self.on_return, _LAST)
        self.register(NEW_RPC_CALL, self.on_recorded, _LAST)
        self.register(MSG_FROM_NETWORK, self.on_message, _FIRST)
        self.register(REPLY_FROM_SERVER, self.on_executed, _FIRST)

    # -- helpers ---------------------------------------------------------

    def _record(self, key: CallKey, kind: str, detail: Any = None) -> None:
        self.log.record(self.runtime.now(), self.my_id, kind, key, detail)

    def _client_key(self, call_id: int) -> CallKey:
        return (self.my_id, self.grpc.inc_number, call_id)

    # -- handlers (all read-only) -----------------------------------------

    async def on_issue(self, umsg: UserMsg) -> None:
        if umsg.type is UserOp.CALL:
            # The id is not assigned yet; on_recorded matches it up.
            self._pending_issues.append((self.runtime.now(), umsg.op))

    async def on_recorded(self, call_id: int) -> None:
        if self._pending_issues:
            time, op = self._pending_issues.pop(0)
            self.log.record(time, self.my_id, "issued",
                            self._client_key(call_id), op)

    async def on_return(self, umsg: UserMsg) -> None:
        if umsg.type in (UserOp.CALL, UserOp.REQUEST) and umsg.id:
            self._record(self._client_key(umsg.id), "client-resumed",
                         umsg.status.value)

    async def on_message(self, msg: NetMsg) -> None:
        if msg.type in (NetOp.CALL, NetOp.REPLY, NetOp.ORDER):
            if msg.type is NetOp.CALL:
                key = self.call_key(msg)
            else:
                key = (msg.client if msg.type is NetOp.ORDER
                       else self.my_id, msg.inc, msg.id)
            self._record(key, f"received-{msg.type.value}",
                         f"from {msg.sender}")

    async def on_executed(self, key: CallKey) -> None:
        record = self.grpc.sRPC.get(key)
        detail = record.op if record is not None else None
        self._record(key, "executed", detail)


register_protocol(CallObserver.protocol_name)
