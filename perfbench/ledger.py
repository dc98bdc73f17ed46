"""Per-call count ledger, from the program's public counters.

A snapshot is taken before and after the measured phase from
``runtime.stats()`` (kernel steps, spawns, timers), ``metrics.
snapshot()`` (``net.*``, ``service.*``, ``placement.*``, ``repl.*``,
``adapt.*``) and the stable stores' write counters.  The difference is
divided by the completed calls of the phase, and every ratio is printed
with its base.  All of these counts are deterministic for a seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


def snapshot(dep: Any) -> Dict[str, float]:
    """Every count the ledger needs, flattened into one mapping."""
    counts: Dict[str, float] = {}
    for name, value in dep.runtime.stats().items():
        if name in ("tasks_spawned", "steps_executed", "timers_scheduled"):
            counts[f"kernel.{name}"] = value
    for name, value in dep.metrics.snapshot()["counters"].items():
        if not name.startswith("net.link."):
            counts[name] = value
    counts["stable.writes"] = sum(
        node.stable.cell_writes + node.stable.checkpoint_writes
        for node in dep.nodes.values())
    return counts


def delta(before: Dict[str, float],
          after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0)
            for name in sorted(after) if after[name] != before.get(name, 0)}


#: (metric, source, what the source counts), divided by completed calls.
#: A source is a counter name, ``sum:<prefix>:<suffix>`` over counters, or
#: ``trace:<function>`` for the tracer's span count of that function.
PER_CALL: Tuple[Tuple[str, str, str], ...] = (
    ("sim.steps_per_call", "kernel.steps_executed", "kernel steps"),
    ("sim.spawns_per_call", "kernel.tasks_spawned", "tasks spawned"),
    ("sim.timers_per_call", "kernel.timers_scheduled", "timers armed"),
    ("events.triggers_per_call", "trace:EventBus.trigger",
     "EventBus.trigger spans"),
    ("microprotocols.executions_per_call", "sum:service.:.executions",
     "server executions"),
    ("net.msgs_per_call", "net.send", "messages sent"),
    ("net.envelopes_per_call", "net.envelopes", "envelopes"),
    ("net.drops_per_call", "sum:net.drop-:", "messages dropped"),
    ("net.heartbeats_per_call", "net.fastlane.sends",
     "heartbeats (control fast lane)"),
    ("stablestore.writes_per_call", "stable.writes",
     "stable-store writes"),
)

#: (metric, source), reported as a count over the measured phase.
TOTALS: Tuple[Tuple[str, str], ...] = (
    ("deployment.reply_cache_hits", "sum:service.:.reply_cache.hits"),
    ("placement.parked_calls", "placement.parked_calls"),
    ("placement.redirects", "placement.view.stale_bounces"),
    ("placement.keys_moved", "placement.migration.keys_moved"),
    ("replication.resyncs", "repl.resyncs"),
    ("adapt.parked_calls", "adapt.parked"),
    ("adapt.fence_dropped", "adapt.fence.dropped"),
)


def _value(source: str, counts: Dict[str, float],
           spans: Dict[str, int]) -> float:
    if source.startswith("sum:"):
        _, prefix, suffix = source.split(":")
        return sum(value for name, value in counts.items()
                   if name.startswith(prefix) and name.endswith(suffix))
    if source.startswith("trace:"):
        return spans.get(source[len("trace:"):], 0)
    return counts.get(source, 0)


def ledger(counts: Dict[str, float], calls: int,
           spans: Dict[str, int]) -> Tuple[Dict[str, float], List[str]]:
    """Per-call ratios and totals, plus one note line per ratio giving
    its numerator and base.  ``spans`` holds the traced run's span counts
    by function."""
    metrics: Dict[str, float] = {}
    notes: List[str] = []
    for metric, source, what in PER_CALL:
        numerator = _value(source, counts, spans)
        metrics[metric] = numerator / calls
        notes.append(f"{metric} = {numerator:.0f} {what} / {calls} "
                     f"completed calls = {metrics[metric]:.4f}")
    for metric, source in TOTALS:
        metrics[metric] = _value(source, counts, spans)
    return metrics, notes
