"""The deployment observatory: instruments and their assembly.

Unit coverage for each instrument — the bounded histogram reservoir, the
space-saving hot-key sketch, the rolling SLO windows with breach
latching, the flight recorder's ring semantics and deterministic dumps —
plus end-to-end checks
that an ``observatory=True`` deployment wires them all together and
renders the one-page health report.
"""

import importlib
import random

import pytest

from repro import Deployment, ServiceSpec
from repro.apps import KVStore, ShardRouter
from repro.obs.flight import FlightRecorder, live_recorders
from repro.obs.loadstats import KeyLoadTracker, SpaceSaving
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import KernelProfiler
from repro.obs.slo import SloTracker


def _marshal():
    return importlib.import_module("repro.stubs.marshal")


# ---------------------------------------------------------------------------
# Histogram reservoir (bounded memory, deterministic summaries)
# ---------------------------------------------------------------------------

def test_reservoir_exact_below_cap():
    hist = Histogram("t", reservoir=64)
    values = [i / 10 for i in range(50)]
    for v in values:
        hist.observe(v)
    assert hist.samples == values          # every observation retained
    assert hist.count == 50
    assert hist.summary()["max"] == pytest.approx(4.9)


def test_reservoir_bounds_memory_with_exact_aggregates():
    hist = Histogram("t", reservoir=32)
    rng = random.Random(7)
    values = [rng.random() for _ in range(5000)]
    for v in values:
        hist.observe(v)
    assert len(hist.samples) == 32         # bounded however long the run
    assert hist.count == 5000              # aggregates stay exact
    assert hist.total == pytest.approx(sum(values))
    assert hist.summary()["min"] == pytest.approx(min(values))
    assert hist.summary()["max"] == pytest.approx(max(values))


def test_reservoir_is_deterministic_per_name():
    def run(name):
        hist = Histogram(name, reservoir=16)
        rng = random.Random(3)
        for _ in range(1000):
            hist.observe(rng.random())
        return hist.samples

    assert run("same") == run("same")      # seeded from the name
    # Seeded benchmarks stay byte-identical across runs of one tree.


# ---------------------------------------------------------------------------
# Space-saving hot keys under a Zipfian stream
# ---------------------------------------------------------------------------

def test_space_saving_finds_zipf_head():
    keys = [f"key-{i:03d}" for i in range(100)]
    weights = [1.0 / (rank + 1) for rank in range(100)]
    rng = random.Random(42)
    truth = {}
    sketch = SpaceSaving(budget=8)
    for _ in range(4000):
        key = rng.choices(keys, weights)[0]
        truth[key] = truth.get(key, 0) + 1
        sketch.hit(key)
    assert len(sketch) <= 8
    assert sketch.total == 4000
    top = sketch.top(8)
    top_keys = [key for key, _, _ in top]
    # The guaranteed-heavy keys (freq > total/budget) must be present.
    for key, freq in truth.items():
        if freq > 4000 / 8:
            assert key in top_keys, (key, freq)
    # The sketch's defining bound: count - err <= truth <= count.
    for key, count, err in top:
        true = truth.get(key, 0)
        assert count - err <= true <= count, (key, count, err, true)


def test_key_load_tracker_per_service_and_publish():
    metrics = MetricsRegistry()
    tracker = KeyLoadTracker(metrics, top_k=4)
    for _ in range(5):
        tracker.note("shard-0", "hot")
    tracker.note("shard-0", "cold")
    tracker.note("shard-1", "other")
    assert tracker.services() == ["shard-0", "shard-1"]
    assert tracker.top("shard-0")[0] == ("hot", 5, 0)
    assert tracker.top("missing") == []
    tracker.publish()
    snap = metrics.snapshot()["gauges"]
    assert snap["placement.load.volume.shard-0"] == 6
    assert snap["placement.load.hottest.shard-0"] == 5
    assert metrics.value("placement.load.noted") == 7
    assert any("hot×5" in line for line in tracker.report_lines())


# ---------------------------------------------------------------------------
# SLO windows: watermarks, breach latching, re-arming
# ---------------------------------------------------------------------------

def test_slo_breach_latches_once_and_rearms():
    metrics = MetricsRegistry()
    fired = []
    slo = SloTracker(metrics, window=8, thresholds={99: 0.1},
                     min_samples=4, clock=lambda: 1.5)
    slo.on_breach = fired.append
    for _ in range(4):
        slo.observe("svc", 0.01)
    assert slo.breaches == []              # under the bound
    slo.observe("svc", 0.5)                # p99 jumps over -> breach
    slo.observe("svc", 0.5)                # still latched: no second one
    assert len(slo.breaches) == 1 and len(fired) == 1
    breach = slo.breaches[0]
    assert (breach.service, breach.percentile) == ("svc", 99)
    assert breach.time == 1.5 and breach.value > breach.threshold
    for _ in range(8):                     # flush the window clean
        slo.observe("svc", 0.01)
    slo.observe("svc", 0.5)                # latch re-armed -> new breach
    assert len(slo.breaches) == 2
    assert metrics.value("obs.slo.breaches") == 2


def test_slo_watermarks_and_publish():
    metrics = MetricsRegistry()
    slo = SloTracker(metrics, window=100, min_samples=1)
    for i in range(100):
        slo.observe("svc", (i + 1) / 1000)
    marks = slo.watermarks("svc")
    assert marks["p50"] == pytest.approx(0.051)  # nearest rank
    assert marks["p99"] == pytest.approx(0.099)
    slo.publish()
    assert metrics.snapshot()["gauges"]["obs.slo.p99.svc"] == (
        pytest.approx(0.099))
    assert slo.watermarks("unseen") == {"p50": 0.0, "p95": 0.0,
                                        "p99": 0.0}


def test_slo_rejects_unknown_percentile():
    with pytest.raises(ValueError):
        SloTracker(MetricsRegistry(), thresholds={90: 0.1})


# ---------------------------------------------------------------------------
# Flight recorder: bounded ring, deterministic dumps
# ---------------------------------------------------------------------------

def test_flight_ring_overwrites_oldest():
    metrics = MetricsRegistry()
    clock = iter(range(100))
    flight = FlightRecorder(metrics, capacity=4,
                            clock=lambda: float(next(clock)))
    for i in range(10):
        flight.note("evt", i=i)
    assert len(flight) == 4 and flight.total_noted == 10
    assert [record.fields["i"] for _, record in flight.entries()] == (
        [6, 7, 8, 9])                      # oldest first, newest retained
    seqs = [seq for seq, _ in flight.entries()]
    assert seqs == sorted(seqs)
    assert metrics.value("obs.recorder.overwrites") == 6


def test_flight_dump_is_deterministic():
    def run():
        flight = FlightRecorder(MetricsRegistry(), capacity=8,
                                clock=lambda: 0.25)
        flight.note("suspect", pid=3)
        # Insertion order of fields must not matter: sorted rendering.
        flight.note("rebind", members=[1, 2], service="kv")
        flight.note("rebind", service="kv", members=[1, 2])
        return flight.dump("test")

    first, second = run(), run()
    assert first == second
    lines = first.split("\n")
    assert len(lines) == 3
    # Past the sequence number, field order must not show.
    assert lines[1].split("] ", 1)[1] == lines[2].split("] ", 1)[1]
    assert "pid=3" in lines[0]


def test_flight_dump_bookkeeping_and_live_registry():
    metrics = MetricsRegistry()
    flight = FlightRecorder(metrics, capacity=8)
    flight.note("evt")
    text = flight.dump("because")
    assert flight.dumps == [("because", text)]
    assert metrics.value("obs.recorder.dumps") == 1
    assert flight in live_recorders()      # visible to the failure hook
    flight.publish()
    assert metrics.snapshot()["gauges"]["obs.recorder.retained"] == 1


def test_flight_note_accepts_wire_pipeline_fields():
    # Regression: the wire pipeline once taped fast-lane activations
    # with a field literally named ``kind``, which collides with note()'s
    # positional parameter and raises — on a send path that silently
    # kills the sender daemon and drives every detector to suspicion.
    # The pipeline's backpressure note uses the same call shape.
    flight = FlightRecorder(MetricsRegistry(), capacity=4)
    flight.note("fastlane", src=1, dst=2, payload="Heartbeat")
    flight.note("backpressure", src=1, dst=2, inflight=9)
    assert len(flight) == 2


# ---------------------------------------------------------------------------
# End to end: the assembled observatory on a live deployment
# ---------------------------------------------------------------------------

def _run_observed_deployment(observatory):
    deployment = Deployment(seed=11, membership="oracle",
                            observatory=observatory)
    deployment.add_service("kv", ServiceSpec(), KVStore, servers=2)
    for i in range(6):
        result = deployment.call_and_run(
            "kv", "put", {"key": f"k{i % 2}", "value": i})
        assert result.ok
    deployment.publish_runtime_stats()
    return deployment


def test_observatory_end_to_end_report():
    deployment = _run_observed_deployment(True)
    obs = deployment.observatory
    assert obs.profiler.steps_seen > 0
    assert obs.profiler.step_sites()       # wall clock attributed
    marshal = _marshal()
    assert marshal._PROFILER is obs.profiler  # stub hook installed
    marshal.marshal({"probe": 1})
    assert obs.profiler.marshal_calls > 0
    assert deployment._slo.watermarks("kv")["p99"] > 0.0
    snap = deployment.metrics.snapshot()["gauges"]
    assert snap["obs.profile.steps"] > 0
    report = deployment.render_report()
    for header in ("kernel profile", "per-shard hot keys",
                   "SLO windows", "flight recorder"):
        assert header in report, header
    deployment.shutdown()
    assert _marshal()._PROFILER is None    # close() released the global


def test_observatory_breach_dumps_flight_tape():
    from repro.obs.observatory import ObservatoryConfig
    config = ObservatoryConfig(slo_thresholds={99: 0.0},
                               slo_min_samples=1)
    deployment = _run_observed_deployment(config)
    assert deployment._slo.breaches       # every call is over a 0s bound
    reasons = [reason for reason, _ in deployment.flight.dumps]
    assert any(reason.startswith("slo-breach:kv") for reason in reasons)
    tape = deployment.flight.format_dump()
    assert "slo-breach" in tape
    deployment.shutdown()


def test_disabled_deployment_has_no_observatory_hooks():
    deployment = Deployment(seed=11, membership="oracle")
    assert deployment.observatory is None
    assert deployment.flight is None and deployment._slo is None
    assert deployment.runtime.profiler is None
    assert deployment.fabric.pipeline.flight is None
    assert _marshal()._PROFILER is None
    assert ShardRouter(["a", "b"])._load is None
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        deployment.render_report()
    deployment.shutdown()
