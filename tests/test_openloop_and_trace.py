"""Open-loop workload driver and the network trace accessors."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import OpenLoopWorkload, read_only_workload
from repro.net import NetworkFabric, Node
from repro.runtime import SimRuntime

FAST = LinkSpec(delay=0.002, jitter=0.001)


def test_open_loop_offers_poisson_arrivals():
    spec = ServiceSpec(acceptance=1, bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, seed=1,
                             default_link=FAST)
    workload = OpenLoopWorkload(lambda i: read_only_workload(seed=i),
                                rate=100.0, duration=2.0, seed=3)
    result = workload.run(cluster, drain_time=1.0)
    # ~200 expected arrivals; Poisson spread tolerated generously.
    assert 140 < result.calls < 260
    assert result.incomplete == 0
    assert result.ok_ratio == 1.0
    assert result.latency_stats().mean < 0.05


def test_open_loop_overload_leaves_backlog_without_drain():
    spec = ServiceSpec(acceptance=1, bounded=0.0, execution="serial")
    cluster = ServiceCluster(
        spec, lambda pid: KVStore(op_delay=0.02, keep_log=False),
        n_servers=1, seed=2, default_link=FAST)
    # Capacity ~50/s, offered 150/s, no drain: backlog must be visible.
    workload = OpenLoopWorkload(lambda i: read_only_workload(seed=i),
                                rate=150.0, duration=2.0, seed=4)
    result = workload.run(cluster, drain_time=0.0)
    assert result.incomplete > 20
    cluster.shutdown()   # cancel the deliberate backlog cleanly


def test_open_loop_parameter_validation():
    with pytest.raises(ValueError):
        OpenLoopWorkload(lambda i: read_only_workload(), rate=0.0,
                         duration=1.0)
    with pytest.raises(ValueError):
        OpenLoopWorkload(lambda i: read_only_workload(), rate=1.0,
                         duration=0.0)


def test_open_loop_is_deterministic():
    def run():
        spec = ServiceSpec(acceptance=1, bounded=0.0)
        cluster = ServiceCluster(spec, KVStore, n_servers=1, seed=5,
                                 default_link=FAST)
        workload = OpenLoopWorkload(
            lambda i: read_only_workload(seed=i), rate=80.0,
            duration=1.0, seed=6)
        return workload.run(cluster).latencies

    assert run() == run()


# ----------------------------------------------------------------------
# Network trace accessors
# ----------------------------------------------------------------------

def test_trace_accessors_and_counters_only_mode():
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        node.start()
    fabric.send(1, 2, "a")
    fabric.send(2, 1, "b")
    rt.run_for(1.0)
    trace = fabric.trace
    assert trace.sends == 2
    assert trace.deliveries == 2
    assert len([e for e in trace.events if e.kind == "send"]) == 2
    assert [e.fields["detail"] for e in trace.events
            if e.node == 1] == ["a", "a"]
    assert [e.fields["detail"] for e in trace.events
            if e.fields["dst"] == 1 and e.kind == "deliver"] == ["b"]

    trace.clear()
    assert trace.sends == 0 and trace.events == []

    trace.keep_events = False
    fabric.send(1, 2, "c")
    rt.run_for(1.0)
    assert trace.sends == 1
    assert trace.events == []       # counters only
