"""The trace recorder: RPC spans and event-dispatch records.

One :class:`Recorder` serves a whole deployment.  It collects two kinds
of data:

* **spans** — timed, parented intervals forming one tree per RPC
  (``rpc.call`` at the client, one ``rpc.send`` per transmission, one
  ``msg.*`` per delivered wire message, one ``server.execute`` per
  server-procedure run).  Span context — the ``(trace, span)`` id pair —
  crosses the simulated network inside ``NetMsg.annotations`` under
  :data:`CTX_KEY`, which is how the per-server subtrees reconnect to the
  client's root.
* **event records** — flat structured records from the framework's
  ``register`` / ``trigger`` / ``cancel_event`` / ``TIMEOUT`` paths,
  each carrying the handler name, owning micro-protocol, priority and
  virtual-time duration.  Handler durations are simultaneously folded
  into the shared :class:`~repro.obs.metrics.MetricsRegistry` under
  ``handler.<micro>``, which is what decomposes composition overhead
  per micro-protocol.

:class:`EventRecord` is the one record type of the whole observation
layer: the fabric trace (:class:`~repro.net.trace.NetTrace`), the Call
Observer's :class:`~repro.core.microprotocols.observer.CallTraceLog` and
the flight tape (:class:`~repro.obs.flight.FlightRecorder`) all hold
them, and :func:`render_record` is the one function that turns a record
into a line — the tape's text line or the JSONL ``event`` line.

Zero overhead when disabled
---------------------------

Instrumented components never consult a recorder per operation.
:meth:`repro.runtime.base.Runtime.attach_obs` performs the enabled check
*once at attach time* and stores ``None`` for a disabled (or absent)
recorder; each component captures that reference at construction, so the
disabled hot path is a single ``is None`` test — guarded by
``tests/test_obs_overhead.py``.

Context propagation within a process uses a per-task stack keyed by the
runtime's current task handle, so concurrent dispatch chains (one per
network arrival) cannot cross wires.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["CTX_KEY", "SpanContext", "Span", "EventRecord",
           "render_record", "Recorder"]

#: Annotation key under which span context travels inside wire messages.
CTX_KEY = "obs.ctx"

#: ``(trace id, span id)`` — what crosses task and process boundaries.
SpanContext = Tuple[int, int]


@dataclass
class Span:
    """One timed, parented interval of a trace."""

    trace: int
    sid: int
    parent: Optional[int]
    name: str
    node: int
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def ctx(self) -> SpanContext:
        return (self.trace, self.sid)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass(frozen=True)
class EventRecord:
    """One structured observation outside the span tree proper.

    ``node`` is the observing (or, for a fabric record, the sending)
    process id, -1 when no node applies; everything else the producer
    knows goes into ``fields``.
    """

    time: float
    kind: str
    node: int
    fields: Dict[str, Any]


def render_record(record: EventRecord, seq: Optional[int] = None) -> str:
    """One line for one record.

    With the tape's sequence number ``seq`` it is the flight tape's
    deterministic text line: sequence number, virtual time, kind and the
    fields in key order, so two seeded runs render byte-identically.
    Without it, it is the exporter's JSONL ``event`` line: one JSON
    object with ``t``, ``kind``, ``time`` and ``node`` and the fields
    merged in (values JSON cannot hold are written as ``str``).
    """
    if seq is None:
        line = {"t": "event", "kind": record.kind, "time": record.time,
                "node": record.node}
        line.update(record.fields)
        return json.dumps(line, default=str)
    fields = record.fields
    rendered = " ".join(f"{key}={fields[key]!r}" for key in sorted(fields))
    return (f"[{seq:>5}] t={record.time:9.4f}s {record.kind:<18} "
            f"{rendered}").rstrip()


def _no_task() -> Optional[int]:
    return None


def _zero_clock() -> float:
    return 0.0


class Recorder:
    """Collects spans and event records for one deployment.

    Construct with ``enabled=False`` for a no-op recorder: every record
    method returns immediately, and
    :meth:`~repro.runtime.base.Runtime.attach_obs` refuses to install it
    at all, keeping instrumented code on its untraced path.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None, *,
                 enabled: bool = True):
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = []
        self.events: List[EventRecord] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Per-task context stacks; key None collects out-of-task pushes.
        self._ctx: Dict[Optional[int], List[SpanContext]] = {}
        self._clock: Callable[[], float] = _zero_clock
        self._task_key: Callable[[], Optional[int]] = _no_task

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def bind(self, runtime: Any) -> None:
        """Adopt ``runtime``'s clock and task identity.

        Called by :meth:`Runtime.attach_obs`; until bound, timestamps
        are 0 and context is process-global (fine for unit tests that
        exercise the recorder standalone).
        """
        self._clock = runtime.now

        def task_key() -> Optional[int]:
            try:
                return id(runtime.current_handle_nowait())
            except Exception:  # outside any task (setup/teardown code)
                return None

        self._task_key = task_key

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def new_trace(self) -> int:
        return next(self._trace_ids)

    def start_span(self, name: str, *, node: int = -1,
                   parent: Optional[SpanContext] = None,
                   attrs: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Open a span; parent defaults to the calling task's context.

        With no parent anywhere a fresh trace is minted (this is the
        root-span case, e.g. ``rpc.call``).
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = self.current()
        if parent is not None:
            trace, parent_sid = int(parent[0]), int(parent[1])
        else:
            trace, parent_sid = self.new_trace(), None
        span = Span(trace=trace, sid=next(self._span_ids),
                    parent=parent_sid, name=name, node=node,
                    start=self.now(), attrs=dict(attrs) if attrs else {})
        self.spans.append(span)
        return span

    def end_span(self, span: Optional[Span], **attrs: Any) -> None:
        if span is None:
            return
        span.end = self.now()
        if attrs:
            span.attrs.update(attrs)

    def span_event(self, name: str, *, node: int = -1,
                   parent: Optional[SpanContext] = None,
                   **attrs: Any) -> Optional[Span]:
        """A zero-duration span (an instantaneous action like a send)."""
        span = self.start_span(name, node=node, parent=parent, attrs=attrs)
        if span is not None:
            span.end = span.start
        return span

    # ------------------------------------------------------------------
    # Per-task context
    # ------------------------------------------------------------------

    def push_ctx(self, ctx: SpanContext) -> None:
        self._ctx.setdefault(self._task_key(), []).append(ctx)

    def pop_ctx(self) -> None:
        key = self._task_key()
        stack = self._ctx.get(key)
        if stack:
            stack.pop()
            if not stack:
                self._ctx.pop(key, None)

    def current(self) -> Optional[SpanContext]:
        """The calling task's innermost span context, if any."""
        stack = self._ctx.get(self._task_key())
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Structured event records
    # ------------------------------------------------------------------

    def record_event(self, kind: str, *, node: int = -1,
                     time: Optional[float] = None, **fields: Any) -> None:
        if not self.enabled:
            return
        self.events.append(EventRecord(
            time=self.now() if time is None else time,
            kind=kind, node=node, fields=fields))

    def add(self, record: EventRecord) -> None:
        """Keep a record another producer already made (no copy)."""
        if self.enabled:
            self.events.append(record)

    def record_handler(self, event: str, owner: str, handler: str,
                       priority: float, start: float, end: float, *,
                       node: int = -1, cancelled: bool = False) -> None:
        """One handler invocation on a ``trigger``/``TIMEOUT`` path.

        Besides the flat record (tagged with the calling task's span
        context so exporters can nest it), the virtual-time duration is
        folded into the ``handler.<owner>`` histogram — the per-micro-
        protocol cost accounting the benchmarks decompose.
        """
        if not self.enabled:
            return
        ctx = self.current()
        self.events.append(EventRecord(
            time=start, kind="handler", node=node,
            fields={"event": event, "owner": owner or "framework",
                    "handler": handler, "priority": priority,
                    "dur": end - start, "cancelled": cancelled,
                    "span": list(ctx) if ctx else None}))
        self.metrics.histogram(
            "handler." + (owner or "framework")).observe(end - start)
        self.metrics.counter("obs.handlers").inc()

    # ------------------------------------------------------------------
    # Queries / maintenance
    # ------------------------------------------------------------------

    def trace_spans(self, trace: int) -> List[Span]:
        return [s for s in self.spans if s.trace == trace]

    def roots(self) -> List[Span]:
        """Spans that start their trace (no parent)."""
        return [s for s in self.spans if s.parent is None]

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._ctx.clear()
