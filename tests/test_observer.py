"""The Call Observer micro-protocol: tracing without interference."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore

FAST = LinkSpec(delay=0.005, jitter=0.0)


def observed_cluster(**kwargs):
    spec = kwargs.pop("spec", ServiceSpec(acceptance=3, bounded=5.0,
                                          unique=True))
    return ServiceCluster(spec, KVStore, n_servers=3, default_link=FAST,
                          observe=True, **kwargs)


def test_timeline_covers_the_call_lifecycle():
    cluster = observed_cluster()
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.3)
    assert result.ok
    key = (cluster.client, 1, result.id)
    kinds = [p.kind for p in cluster.call_log.timeline(key)]
    assert kinds[0] == "issued"
    assert kinds.count("received-Call") == 3      # one per server
    assert kinds.count("executed") == 3
    assert kinds.count("received-Reply") == 3     # back at the client
    assert "client-resumed" in kinds
    # Time ordering holds.
    times = [p.time for p in cluster.call_log.timeline(key)]
    assert times == sorted(times)


def test_first_execution_latency_matches_link_delay():
    cluster = observed_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    key = (cluster.client, 1, result.id)
    latency = cluster.call_log.first_execution_latency(key)
    assert latency == pytest.approx(0.005, abs=0.002)


def test_observer_attributes_points_to_nodes():
    cluster = observed_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    key = (cluster.client, 1, result.id)
    executions = cluster.call_log.executions(key)
    assert sorted(p.node for p in executions) == [1, 2, 3]


def test_multiple_calls_tracked_separately():
    cluster = observed_cluster()
    r1 = cluster.call_and_run("put", {"key": "a", "value": 1},
                              extra_time=0.2)
    r2 = cluster.call_and_run("put", {"key": "b", "value": 2},
                              extra_time=0.2)
    log = cluster.call_log
    assert len(log.calls()) == 2
    k1 = (cluster.client, 1, r1.id)
    k2 = (cluster.client, 1, r2.id)
    assert log.executions(k1) and log.executions(k2)
    assert log.timeline(k1) != log.timeline(k2)


def test_format_timeline_is_readable():
    cluster = observed_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    key = (cluster.client, 1, result.id)
    text = cluster.call_log.format_timeline(key)
    assert "issued" in text and "executed" in text and "ms" in text


def test_observer_does_not_change_behavior():
    """The same seeded run with and without the observer produces
    byte-identical application state and network traffic counts."""
    def run(observe):
        cluster = ServiceCluster(
            ServiceSpec(acceptance=3, bounded=5.0, unique=True),
            KVStore, n_servers=3, seed=7,
            default_link=LinkSpec(delay=0.01, jitter=0.01, loss=0.1),
            observe=observe)
        for i in range(5):
            cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                 extra_time=0.3)
        states = [cluster.app(pid).data for pid in cluster.server_pids]
        return states, cluster.metrics.counters("net.")

    plain_states, plain_counts = run(False)
    observed_states, observed_counts = run(True)
    assert plain_states == observed_states
    assert plain_counts == observed_counts


def test_observer_with_total_order_traces_order_messages():
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="total")
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST, observe=True)
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.3)
    key = (cluster.client, 1, result.id)
    kinds = [p.kind for p in cluster.call_log.timeline(key)]
    assert "received-Order" in kinds
