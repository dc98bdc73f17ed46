"""Trace exporters: JSONL dump, span-tree reconstruction, flame summary.

Three consumers of one :class:`~repro.obs.recorder.Recorder`:

* :func:`to_jsonl` — the machine format.  One JSON object per line,
  discriminated by ``"t"``: ``span`` lines, ``event`` lines (one per
  :class:`~repro.obs.recorder.EventRecord`, rendered by
  :func:`~repro.obs.recorder.render_record`), and ``metric`` lines (the
  registry snapshot).  This is what ``python -m repro trace <config>``
  emits; :func:`read_jsonl` reads it back.
* :func:`span_trees` — rebuilds the per-trace call trees from flat
  spans; a span whose parent never materialized (e.g. its message was
  dropped and the sender crashed) becomes an extra root of its trace
  rather than being lost.
* :func:`format_flame` — the human format: one indented tree per trace
  with virtual-time offsets/durations, handler records nested under the
  span that was current when they ran.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.recorder import EventRecord, Recorder, Span, render_record

__all__ = ["to_jsonl", "read_jsonl", "span_trees", "format_flame",
           "SpanNode"]


def _span_line(span: Span) -> Dict[str, Any]:
    return {"t": "span", "trace": span.trace, "id": span.sid,
            "parent": span.parent, "name": span.name, "node": span.node,
            "start": span.start, "end": span.end, "attrs": span.attrs}


def to_jsonl(recorder: Recorder, stream: IO[str]) -> int:
    """Serialize the recorder (and its metrics) as JSONL; returns the
    number of lines written."""
    lines = 0
    for span in recorder.spans:
        stream.write(json.dumps(_span_line(span), default=str) + "\n")
        lines += 1
    for event in recorder.events:
        stream.write(render_record(event) + "\n")
        lines += 1
    snapshot = recorder.metrics.snapshot()
    for name, value in snapshot["counters"].items():
        stream.write(json.dumps({"t": "metric", "kind": "counter",
                                 "name": name, "value": value}) + "\n")
        lines += 1
    for name, value in snapshot["gauges"].items():
        stream.write(json.dumps({"t": "metric", "kind": "gauge",
                                 "name": name, "value": value}) + "\n")
        lines += 1
    for name, summary in snapshot["histograms"].items():
        line = {"t": "metric", "kind": "histogram", "name": name}
        line.update(summary)
        stream.write(json.dumps(line) + "\n")
        lines += 1
    return lines


def read_jsonl(stream: Iterable[str]) -> Dict[str, List[Any]]:
    """Parse a JSONL trace back into ``{"span": [...], "event": [...],
    "metric": [...]}`` (round-trip aid for tests and offline tooling).

    Span and metric lines come back as dicts; event lines come back as
    :class:`EventRecord` objects, the type they were written from.
    """
    out: Dict[str, List[Any]] = {"span": [], "event": [], "metric": []}
    for raw in stream:
        raw = raw.strip()
        if not raw:
            continue
        obj = json.loads(raw)
        tag = obj.get("t", "?")
        if tag == "event":
            del obj["t"]
            obj = EventRecord(time=obj.pop("time"), kind=obj.pop("kind"),
                              node=obj.pop("node"), fields=obj)
        out.setdefault(tag, []).append(obj)
    return out


@dataclass
class SpanNode:
    """One node of a reconstructed call tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)
    #: Handler event records whose context pointed at this span.
    handlers: List[EventRecord] = field(default_factory=list)


def span_trees(recorder: Recorder) -> Dict[int, List[SpanNode]]:
    """Trace id -> list of root nodes (one, for a connected trace)."""
    nodes: Dict[int, SpanNode] = {s.sid: SpanNode(s)
                                  for s in recorder.spans}
    trees: Dict[int, List[SpanNode]] = {}
    for span in recorder.spans:
        node = nodes[span.sid]
        parent = nodes.get(span.parent) if span.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            trees.setdefault(span.trace, []).append(node)
    for event in recorder.events:
        if event.kind != "handler":
            continue
        ctx = event.fields.get("span")
        if ctx and ctx[1] in nodes:
            nodes[ctx[1]].handlers.append(event)
    return trees


def _format_node(node: SpanNode, base: float, depth: int,
                 lines: List[str]) -> None:
    span = node.span
    offset = (span.start - base) * 1000.0
    dur = span.duration * 1000.0
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
    lines.append(f"{'  ' * depth}{span.name}  node={span.node}  "
                 f"@{offset:.2f}ms  ({dur:.2f}ms)"
                 + (f"  {attrs}" if attrs else ""))
    for event in sorted(node.handlers, key=lambda e: e.time):
        lines.append(f"{'  ' * (depth + 1)}· {event.fields['owner']}"
                     f".{event.fields['handler'].rsplit('.', 1)[-1]}"
                     f" [{event.fields['event']}]"
                     f"  {event.fields['dur'] * 1000.0:.2f}ms")
    for child in sorted(node.children, key=lambda n: n.span.start):
        _format_node(child, base, depth + 1, lines)


def format_flame(recorder: Recorder,
                 trace: Optional[int] = None) -> str:
    """Human-readable per-call flame summary (one tree per trace)."""
    trees = span_trees(recorder)
    selected: List[Tuple[int, List[SpanNode]]] = sorted(
        (t, roots) for t, roots in trees.items()
        if trace is None or t == trace)
    lines: List[str] = []
    for trace_id, roots in selected:
        base = min(n.span.start for n in roots)
        lines.append(f"trace {trace_id}:")
        for root in sorted(roots, key=lambda n: n.span.start):
            _format_node(root, base, 1, lines)
    return "\n".join(lines)
