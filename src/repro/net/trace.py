"""Network event tracing and counters.

Every fabric decision (send, drop, duplicate, deliver, crash, recover) is
recorded here.  Experiments use the counters for their reported metrics
(message costs per call, retransmission counts) and the event log for
invariant checking in tests.

The per-kind counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
under ``net.<kind>`` (one registry per deployment, shared with the rest of
the observability layer); read one with :meth:`NetTrace.count` or
``metrics.value("net.<kind>")``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import EventRecord

__all__ = ["NetTrace"]

#: Registry namespace for the fabric's per-kind counters.
NET_PREFIX = "net."


class NetTrace:
    """Per-kind counters and, optionally, the fabric's event log.

    Each logged event is an :class:`~repro.obs.recorder.EventRecord`
    whose ``kind`` is one of ``send``, ``deliver``, ``drop-loss``,
    ``drop-partition``, ``drop-filter``, ``drop-dead``,
    ``drop-src-down`` (buffered by the wire pipeline when the sending
    site crashed before its coalescing flush), ``duplicate``, ``crash``,
    ``recover``; ``node`` is the source and ``fields`` hold ``dst`` and
    ``detail`` (the payload, or the incarnation of a recovery).  Batched
    envelopes account one record per *inner* message for every kind.

    Recording the full event list can be disabled (counters only) for the
    large benchmark runs via ``keep_events=False``.  Pass the deployment's
    shared registry as ``metrics`` to fold the network counters into it; a
    private registry is created otherwise.
    """

    def __init__(self, keep_events: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.keep_events = keep_events
        self.events: List[EventRecord] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional live observers, e.g. a test asserting on the fly.
        self.observers: List[Callable[[EventRecord], None]] = []
        # Per-kind counter objects, resolved once: Counter instances are
        # stable across registry resets (reset zeroes them in place), so
        # the hot path skips the name concatenation and registry lookup.
        self._counters: Dict[str, Any] = {}

    def record(self, time: float, kind: str, src: int = -1, dst: int = -1,
               detail: Any = None) -> None:
        counter = self._counters.get(kind)
        if counter is None:
            counter = self.metrics.counter(NET_PREFIX + kind)
            self._counters[kind] = counter
        counter.inc()
        if not self.keep_events and not self.observers:
            # Counters-only mode (the big benchmark runs): no event
            # object is materialized at all.
            return
        event = EventRecord(time, kind, src, {"dst": dst, "detail": detail})
        if self.keep_events:
            self.events.append(event)
        for observer in self.observers:
            observer(event)

    # -- convenience accessors -------------------------------------------

    def count(self, kind: str) -> int:
        """How many ``kind`` records were made (0 for a kind never seen)."""
        return int(self.metrics.value(NET_PREFIX + kind, 0))

    @property
    def sends(self) -> int:
        return self.count("send")

    @property
    def deliveries(self) -> int:
        return self.count("deliver")

    @property
    def losses(self) -> int:
        return self.count("drop-loss")

    @property
    def duplicates(self) -> int:
        return self.count("duplicate")

    def clear(self) -> None:
        self.events.clear()
        self.metrics.reset(NET_PREFIX)
