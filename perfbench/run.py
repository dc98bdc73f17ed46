"""The repo benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload kv-put --seed 1 --seconds 15 --trace 0

``--trace 0`` runs one trial of the workload on each of nine seeds
derived from ``--seed``, then repeats trials (at least one) until the
measured phases add up to ``--seconds`` of wall time.  Each trial runs
in a fresh interpreter (``perfbench/trial.py``) and builds its
deployment from its seed, so a repeated seed must give the same
virtual-time results and the same per-call counts: the run fails if it
does not (the determinism gate), or if any output check fails.  The
metrics are the end-to-end ones.

``--trace 1`` alternates untraced and traced trials of the first seed
until ``--seconds`` is reached (at least two of each).  The metrics are
the per-layer ones plus the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (summed over the trials measured) and
``metrics``.  The lines before it are notes: sample counts, the base of
every ratio, where the trace dump went.  ``perfbench/README.md`` says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv-put", "rsm-total", "elastic-churn")
#: Fewest untraced + traced trial pairs of a ``--trace 1`` run.
MIN_PAIRS = 2
#: The run starts no optional trial after this many seconds, and fails
#: rather than start any trial after :data:`DEADLINE_S`, so it ends well
#: inside its time limit even on a slow machine.
BUDGET_S = 100.0
DEADLINE_S = 150.0
TRIAL_TIMEOUT_S = 40.0
#: A run measures this many seeds, derived from ``--seed``: latency
#: percentiles pool their samples and the longest gap is their median,
#: so one unlucky seed moves neither much.
SUB_SEEDS = 9
SEED_STRIDE = 1000

E2E_UNITS = {"calls_per_s": "calls/s", "latency_p50_ms": "ms",
             "latency_p99_ms": "ms", "ok_share": "ratio",
             "max_gap_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "sim.self_us": "us/call", "sim.steps_per_call": "count/call",
    "sim.spawns_per_call": "count/call",
    "sim.timers_per_call": "count/call",
    "events.self_us": "us/call", "events.triggers_per_call": "count/call",
    "microprotocols.self_us": "us/call",
    "microprotocols.executions_per_call": "count/call",
    "grpc.self_us": "us/call",
    "deployment.self_us": "us/call", "deployment.gate_wait_ms": "ms/call",
    "deployment.reply_cache_hits": "count",
    "net.self_us": "us/call", "net.msgs_per_call": "count/call",
    "net.envelopes_per_call": "count/call",
    "net.drops_per_call": "count/call",
    "net.heartbeats_per_call": "count/call",
    "stubs.marshal_us": "us/call", "stubs.bytes_per_call": "B/call",
    "placement.route_us": "us/call", "placement.park_ms": "ms/call",
    "placement.parked_calls": "count", "placement.redirects": "count",
    "placement.keys_moved": "count", "placement.migration_ms": "ms",
    "replication.self_us": "us/call",
    "replication.reads_narrowed_share": "ratio",
    "replication.resyncs": "count",
    "adapt.self_us": "us/call", "adapt.switch_ms": "ms",
    "adapt.parked_calls": "count", "adapt.fence_dropped": "count",
    "membership.self_us": "us/call", "membership.suspicions": "count",
    "membership.detect_ms": "ms",
    "stablestore.writes_per_call": "count/call",
    "stablestore.self_us": "us/call",
    "apps.self_us": "us/call",
    "trace.calls_per_s": "calls/s", "trace.untraced_calls_per_s": "calls/s",
    "trace.overhead_share": "ratio", "trace.spans_per_call": "count/call",
}

#: layer -> the self-time metric that reports it.
SELF_METRICS = {"sim": "sim.self_us", "events": "events.self_us",
                "microprotocols": "microprotocols.self_us",
                "grpc": "grpc.self_us", "deployment": "deployment.self_us",
                "net": "net.self_us", "stubs": "stubs.marshal_us",
                "placement": "placement.route_us",
                "replication": "replication.self_us",
                "adapt": "adapt.self_us", "membership": "membership.self_us",
                "stablestore": "stablestore.self_us",
                "apps": "apps.self_us"}

#: Why a per-layer metric reads 0, by (workload, metric prefix).
ABSENT = {
    ("kv-put", "net.drops"): "lossless links",
    ("kv-put", "net.heartbeats"): "no membership detector",
    ("kv-put", "deployment.gate"): "no call gate is installed",
    ("kv-put", "placement."): "a static ring: no plane, parking or "
                              "migration",
    ("kv-put", "replication."): "no replica groups",
    ("kv-put", "adapt."): "no live switch",
    ("kv-put", "membership."): "no membership detector",
    ("kv-put", "stablestore."): "KVStore keeps no stable state",
    ("rsm-total", "net.heartbeats"): "no membership detector",
    ("rsm-total", "stubs."): "arguments are not marshalled",
    ("rsm-total", "placement."): "one service, no routing",
    ("rsm-total", "replication."): "no replica groups",
    ("rsm-total", "membership."): "no membership detector",
    ("rsm-total", "stablestore."): "KVStore keeps no stable state",
    ("elastic-churn", "stubs."): "arguments are not marshalled",
    ("elastic-churn", "adapt."): "no live switch",
}


def absent_reason(workload: str, metric: str) -> str:
    for (name, prefix), reason in ABSENT.items():
        if name == workload and metric.startswith(prefix):
            return reason
    return "no such event in the measured phase"


_STARTED = perf_counter()


def elapsed() -> float:
    """Wall seconds since the run started."""
    return perf_counter() - _STARTED


class RunFailed(Exception):
    pass


def trial(workload: str, seed: int, *, traced: bool = False,
          dump: str = "") -> Dict[str, Any]:
    """Run one trial in a fresh interpreter and return its report."""
    if elapsed() > DEADLINE_S:
        raise RunFailed(f"no time left for another trial after "
                        f"{DEADLINE_S:.0f} s")
    command = [sys.executable, str(HERE / "trial.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    if dump:
        command += ["--dump", dump]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} seed {seed}: trial exceeded "
                        f"{TRIAL_TIMEOUT_S:.0f} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{workload} seed {seed}: trial exited with "
                        f"{done.returncode}\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def gate(reports: List[Dict[str, Any]], workload: str, seed: int) -> None:
    """Every trial of a seed must repeat the virtual-time results and
    the per-call counts exactly."""
    prints = {r["fingerprint"] for r in reports}
    if len(prints) != 1:
        raise RunFailed(
            f"{workload} seed {seed}: determinism gate failed — "
            f"{len(prints)} different virtual-time results in "
            f"{len(reports)} trials of one seed")


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rate(report: Dict[str, Any]) -> float:
    return report["calls"] / report["wall_s"]


def pooled_rate(reports: List[Dict[str, Any]]) -> float:
    """Completed calls over wall seconds of all the measured phases."""
    return (sum(r["calls"] for r in reports)
            / sum(r["wall_s"] for r in reports))


def end_to_end(by_seed: Dict[int, List[Dict[str, Any]]],
               notes: List[str]) -> Dict[str, float]:
    """Latency percentiles of the pooled sample of every sub-seed, the
    median sub-seed's longest gap, and medians of the wall figures over
    every trial."""
    firsts = [reports[0] for reports in by_seed.values()]
    trials = [r for reports in by_seed.values() for r in reports]
    pooled = sorted(x for r in firsts for x in r["latencies"])
    p99 = percentile(pooled, 0.99)
    beyond = sum(1 for x in pooled if x > p99)
    if beyond < 10:
        raise RunFailed(f"only {beyond} samples lie beyond p99; the "
                        f"workload is too small")
    attempted = sum(r["attempted"] for r in firsts)
    gaps = ", ".join(f"{r['max_gap_ms']:.3f}" for r in firsts)
    notes.append(
        f"latency sample: {len(pooled)} calls from {len(firsts)} seeds, "
        f"{beyond} beyond p99 (virtual time); max_gap_ms is the median "
        f"of the seeds' longest gaps ({gaps} ms); calls_per_s pools the "
        f"measured phases of {len(trials)} trials; setup_s and "
        f"peak_rss_mb are their medians")
    notes.append("calls_per_s by trial: " + ", ".join(
        f"{rate(r):.1f}" for r in trials))
    notes.append("setup_s by trial: " + ", ".join(
        f"{r['setup_s']:.4f}" for r in trials))
    return {
        "calls_per_s": pooled_rate(trials),
        "latency_p50_ms": percentile(pooled, 0.50) * 1000,
        "latency_p99_ms": p99 * 1000,
        "ok_share": 1 - sum(r["failed"] for r in firsts) / attempted,
        "max_gap_ms": statistics.median(r["max_gap_ms"] for r in firsts),
        "setup_s": statistics.median(r["setup_s"] for r in trials),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in trials),
    }


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              workload: str, notes: List[str]) -> Dict[str, float]:
    first = traced[0]
    calls = first["calls"]
    metrics, lines = ledger.ledger(first["counts"], calls,
                                   first["span_counts"])
    notes += lines
    for layer, metric in SELF_METRICS.items():
        metrics[metric] = statistics.median(
            r["layers_ns"].get(layer, 0) for r in traced) / calls / 1000
    waits = first["waits"]
    for metric, outer in (("deployment.gate_wait_ms", "Deployment.call"),
                          ("placement.park_ms", "PlacementPlane.call")):
        total, waited = waits.get(outer, (0.0, 0))
        metrics[metric] = total * 1000 / calls
        notes.append(f"{metric} = {total * 1000:.3f} ms virtual wait "
                     f"({waited} calls waited) / {calls} completed calls")
    metrics["stubs.bytes_per_call"] = first["marshalled_bytes"] / calls
    notes.append(f"stubs.bytes_per_call = {first['marshalled_bytes']} "
                 f"bytes marshalled / {calls} completed calls")
    spans = first["span_counts"]
    reads = sum(spans.get(f"ReplicaGroup.admit.{op}", 0)
                for op in ("get", "keys", "snapshot"))
    routed = first["counts"].get("repl.reads.routed", 0)
    metrics["replication.reads_narrowed_share"] = \
        routed / reads if reads else 0.0
    notes.append(f"replication.reads_narrowed_share = {routed:.0f} reads "
                 f"sent to one replica / {reads} read calls entering a "
                 f"replica group")
    for name in ("placement.migration_ms", "adapt.switch_ms",
                 "membership.suspicions", "membership.detect_ms"):
        metrics[name] = first["figures"].get(name, 0.0)
    traced_rate = pooled_rate(traced)
    plain_rate = pooled_rate(plain)
    metrics["trace.calls_per_s"] = traced_rate
    metrics["trace.untraced_calls_per_s"] = plain_rate
    metrics["trace.overhead_share"] = 1 - traced_rate / plain_rate
    metrics["trace.spans_per_call"] = first["spans"] / calls
    for name in sorted(name for name, value in metrics.items()
                       if value == 0):
        notes.append(f"{name} reads 0: {absent_reason(workload, name)}")
    notes.append("top self time (traced, ns): " + ", ".join(
        f"{name} {ns}" for name, ns in first["top_functions"]))
    return metrics


Result = Tuple[Dict[str, float], List[Dict[str, Any]]]


def traced_run(args: Any, seed: int, notes: List[str]) -> Result:
    """Alternate untraced and traced trials of one seed until the
    measured time is reached (at least :data:`MIN_PAIRS` pairs)."""
    dump_path = HERE / "out" / f"trace-{args.workload}-seed{seed}.jsonl"
    dump_path.parent.mkdir(exist_ok=True)
    dump = str(dump_path.relative_to(ROOT))
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    measured = 0.0
    while len(traced) < MIN_PAIRS or (
            measured < args.seconds and elapsed() < BUDGET_S):
        for report in (trial(args.workload, seed),
                       trial(args.workload, seed, traced=True, dump=dump)):
            (traced if "layers_ns" in report else plain).append(report)
            measured += report["wall_s"]
    gate(plain + traced, args.workload, seed)
    notes.append(
        f"{args.workload} seed {seed}: {len(plain)} untraced and "
        f"{len(traced)} traced trials gave identical virtual-time results "
        f"and counts (the tracer does not perturb the simulation); every "
        f"output check passed")
    notes += plain[0]["notes"]
    metrics = per_layer(plain, traced, args.workload, notes)
    notes.append(f"trace dump ({traced[-1]['spans_kept']} of "
                 f"{traced[-1]['spans']} spans kept): {dump}")
    return metrics, traced


def untraced_run(args: Any, seeds: List[int], notes: List[str]) -> Result:
    """One trial per seed, then repeats (at least one, for the
    determinism gate) until the measured time is reached."""
    by_seed: Dict[int, List[Dict[str, Any]]] = {seed: [] for seed in seeds}
    measured = 0.0
    for seed in seeds:
        report = trial(args.workload, seed)
        by_seed[seed].append(report)
        measured += report["wall_s"]
    repeat = 0
    while repeat == 0 or (measured < args.seconds and elapsed() < BUDGET_S):
        seed = seeds[repeat % len(seeds)]
        report = trial(args.workload, seed)
        by_seed[seed].append(report)
        measured += report["wall_s"]
        repeat += 1
    for seed, reports in by_seed.items():
        gate(reports, args.workload, seed)
    notes.append(
        f"{args.workload} seed {args.seed}: {len(seeds)} seeds "
        f"({seeds[0]}..{seeds[-1]}), {len(seeds) + repeat} trials; "
        f"repeated seeds gave identical virtual-time results and counts; "
        f"every output check passed")
    metrics = end_to_end(by_seed, notes)
    notes += by_seed[seeds[0]][0]["notes"]
    return metrics, [r for reports in by_seed.values() for r in reports]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    notes: List[str] = []
    seeds = [args.seed * SEED_STRIDE + j for j in range(SUB_SEEDS)]
    try:
        if args.trace:
            metrics, measured = traced_run(args, seeds[0], notes)
            units = LAYER_UNITS
        else:
            metrics, measured = untraced_run(args, seeds, notes)
            units = E2E_UNITS
    except RunFailed as failure:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
        return 1

    for line in notes:
        print(line)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
