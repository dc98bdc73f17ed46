"""One trial of one workload, in a fresh interpreter.

``python3 perfbench/trial.py --workload W --seed N [--trace] [--dump F]``
builds the workload (timed as set-up), runs its measured phase (timed),
checks its outputs and prints one JSON object: the wall times, the
virtual-time latency figures, the per-call count ledger and — with
``--trace`` — the per-layer self times from the span tracer.  A failed
output check prints the reason to stderr and exits with code 3.

``run.py`` starts one of these per trial, so no trial inherits another's
heap, caches or wrappers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import tracer as tracing  # noqa: E402


class _MarshalBytes:
    """The stub marshaller's public profiler hook, counting bytes."""

    def __init__(self) -> None:
        self.marshalled = 0

    def on_marshal(self, nbytes: int, seconds: float) -> None:
        self.marshalled += nbytes

    def on_unmarshal(self, nbytes: int, seconds: float) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        # Before the workload module is imported: it binds the marshaller
        # by name, and the deployment caches bound methods as it builds.
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    from repro.stubs.marshal import install_profiler

    workload = workloads.WORKLOADS[args.workload](args.seed)
    gc.collect()
    started = perf_counter()
    workload.setup()
    setup_s = perf_counter() - started
    dep = workload.dep
    before = ledger.snapshot(dep)
    counter = None
    if tracer is not None:
        counter = _MarshalBytes()
        install_profiler(counter)
        tracer.kernel = dep.runtime.kernel
    gc.collect()
    started = perf_counter()
    origin_ns = perf_counter_ns()
    if tracer is not None:
        tracer.recording = True
    workload.run()
    if tracer is not None:
        tracer.recording = False
    wall_s = perf_counter() - started
    counts = ledger.delta(before, ledger.snapshot(dep))
    try:
        workload.check()
    except workloads.CheckFailed as failure:
        print(f"check failed (seed {args.seed}): {failure}", file=sys.stderr)
        return 3
    dep.shutdown()

    latencies = sorted(workload.latencies)
    calls = len(latencies)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calls": calls,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "latencies": latencies,
        "max_gap_ms": workload.max_gap() * 1000,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": counts,
        "figures": workload.figures,
        "notes": workload.notes,
    }
    # Everything that must repeat exactly for this seed.
    out["fingerprint"] = hashlib.sha256(json.dumps(
        [latencies, sorted(workload.completions), out["max_gap_ms"],
         workload.attempted, workload.failed, counts, workload.figures],
    ).encode()).hexdigest()
    if tracer is not None:
        out["layers_ns"] = dict(tracer.layer_ns)
        out["top_functions"] = sorted(
            tracer.name_ns.items(), key=lambda kv: -kv[1])[:12]
        out["span_counts"] = dict(tracer.name_count)
        out["waits"] = {name: list(v) for name, v in tracer.waits.items()}
        out["marshalled_bytes"] = counter.marshalled
        out["spans"] = sum(tracer.name_count.values())
        out["spans_kept"] = len(tracer.kept)
        if args.dump:
            tracer.dump(args.dump, origin_ns)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
