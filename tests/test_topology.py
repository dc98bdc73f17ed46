"""Topology helpers: LAN, two-datacenter WAN, star, degraded sites."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.net import NetworkFabric, Node
from repro.net.topology import (
    LAN,
    WAN,
    degrade_site,
    star,
    two_datacenters,
    uniform_lan,
)
from repro.runtime import SimRuntime


def make_fabric(n):
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    for pid in range(1, n + 1):
        Node(pid, rt, fabric).start()
    return rt, fabric


def test_uniform_lan_sets_all_pairs():
    rt, fabric = make_fabric(3)
    uniform_lan(fabric, [1, 2, 3])
    for src, dst in ((1, 2), (2, 1), (1, 3), (3, 2)):
        assert fabric.link(src, dst) == LAN


def test_two_datacenters_split():
    rt, fabric = make_fabric(4)
    two_datacenters(fabric, [1, 2], [3, 4])
    assert fabric.link(1, 2) == LAN
    assert fabric.link(3, 4) == LAN
    assert fabric.link(1, 3) == WAN
    assert fabric.link(4, 2) == WAN


def test_star_blocks_spoke_to_spoke():
    rt, fabric = make_fabric(3)
    star(fabric, hub=1, spokes=[2, 3])
    sent = []
    fabric.trace.observers.append(
        lambda e: sent.append((e.kind, e.node, e.fields["dst"])))
    fabric.send(2, 1, "to-hub")
    fabric.send(2, 3, "to-spoke")
    rt.kernel.run_until(1.0)
    assert ("deliver", 2, 1) in sent
    assert ("drop-partition", 2, 3) in sent


def test_degrade_site_layers_on_existing_links():
    rt, fabric = make_fabric(2)
    uniform_lan(fabric, [1, 2])
    degrade_site(fabric, 2, extra_delay=0.5, loss=0.25)
    degraded = fabric.link(1, 2)
    assert degraded.delay == pytest.approx(LAN.delay + 0.5)
    assert degraded.loss == 0.25
    # Links not touching the site are unchanged.
    assert fabric.link(2, 1).delay == pytest.approx(LAN.delay + 0.5)


def test_wan_cluster_latency_split_end_to_end():
    spec = ServiceSpec(unique=True, bounded=10.0, acceptance=2)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, seed=1)
    two_datacenters(cluster.fabric, [1, 2, cluster.client], [3])
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.5)
    assert result.ok
    # Two DC-A replicas sufficed: far below one WAN round trip.
    assert cluster.runtime.now() < 0.55  # includes the settle time
