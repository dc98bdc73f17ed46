"""The wire pipeline: coalescing, backpressure, fast lane, crash safety."""

import asyncio

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status, WireConfig
from repro.apps import KVStore
from repro.membership.detector import Heartbeat, HeartbeatDetector
from repro.net import (
    NetworkFabric,
    Node,
    UnreliableTransport,
    WireBatch,
    wire_size,
)
from repro.runtime import AsyncioRuntime, SimRuntime
from repro.sim import RandomSource
from repro.xkernel import Protocol, TypeDemux, compose_stack

FAST = LinkSpec(delay=0.02, jitter=0.0)


class Collector(Protocol):
    """Top protocol recording everything popped up to it."""

    def __init__(self, name="collector"):
        super().__init__(name)
        self.received = []

    async def pop(self, payload, sender):
        self.received.append((sender, payload))


def build_pair(runtime, pids=(1, 2), **fabric_kwargs):
    fabric_kwargs.setdefault("default_link", FAST)
    fabric = NetworkFabric(runtime, **fabric_kwargs)
    nodes, tops = {}, {}
    for pid in pids:
        node = Node(pid, runtime, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        nodes[pid], tops[pid] = node, top
    return fabric, nodes, tops


# ----------------------------------------------------------------------
# WireConfig / WireBatch basics
# ----------------------------------------------------------------------

def test_wire_config_validates():
    with pytest.raises(ValueError):
        WireConfig(max_batch_msgs=0)
    with pytest.raises(ValueError):
        WireConfig(max_batch_bytes=0)
    with pytest.raises(ValueError):
        WireConfig(queue_depth=-1)


def test_wire_batch_surface():
    batch = WireBatch(["a", "bb"])
    assert len(batch) == 2
    assert list(batch) == ["a", "bb"]
    assert batch.wire_size() == 5 + wire_size("a") + wire_size("bb")
    assert wire_size(batch) == batch.wire_size()  # defers to the method
    assert "n=2" in repr(batch) and "str" in repr(batch)
    with pytest.raises(ValueError):
        WireBatch([])


def test_heartbeat_is_a_control_payload():
    from repro.net.wire import is_control

    assert is_control(Heartbeat(1, 1))
    assert not is_control("bulk")
    assert not is_control(WireBatch(["x"]))
    # The marker is a class attribute, not a field: it never travels.
    assert "wire_control" not in Heartbeat.__dataclass_fields__


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------

def test_round_coalescing_batches_shared_link_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))
    metrics = fabric.trace.metrics

    async def main():
        for i in range(8):
            await nodes[1].transport.push(2, f"m{i}")
        await rt.sleep(1.0)

    rt.run(main())
    # All eight messages arrived, in order, but in ONE envelope.
    assert [p for _, p in tops[2].received] == [f"m{i}" for i in range(8)]
    assert fabric.trace.sends == 8
    assert fabric.trace.deliveries == 8
    assert metrics.value("net.envelopes") == 1
    assert metrics.value("net.batch.envelopes") == 1
    assert metrics.value("net.batch.messages") == 8
    assert metrics.value("net.batch.flush.round") == 1
    hist = metrics.histogram("net.batch.flush.1-2")
    assert hist.count == 1 and hist.mean == 8


def test_separate_rounds_do_not_coalesce():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "a")
        await rt.sleep(0.001)          # new scheduling round
        await nodes[1].transport.push(2, "b")
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 2
    assert fabric.trace.metrics.value("net.envelopes") == 2


def test_size_caps_flush_early():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, wire=WireConfig(batch=True, max_batch_msgs=4))
    metrics = fabric.trace.metrics

    async def main():
        for i in range(10):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 10
    # 4 + 4 at the message cap, then 2 on the round flush.
    assert metrics.value("net.batch.flush.cap") == 2
    assert metrics.value("net.batch.flush.round") == 1
    assert metrics.value("net.envelopes") == 3


def test_byte_cap_flushes_early():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, wire=WireConfig(batch=True, max_batch_bytes=40))

    async def main():
        for i in range(4):
            await nodes[1].transport.push(2, "x" * 30)  # 35 bytes each
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 4
    assert fabric.trace.metrics.value("net.batch.flush.cap") >= 1


def test_single_message_round_travels_unbatched():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "solo")
        await rt.sleep(1.0)

    rt.run(main())
    # A buffer of one flushes as the bare payload, not a WireBatch.
    assert tops[2].received == [(1, "solo")]
    assert not any(isinstance(p, WireBatch) for _, p in tops[2].received)


def test_batching_defaults_off_with_identical_accounting():
    def run(wire):
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, rand=RandomSource(5), wire=wire,
            default_link=LinkSpec(delay=0.02, jitter=0.01, loss=0.1))

        async def main():
            for i in range(50):
                await nodes[1].transport.push(2, i)
                if i % 10 == 9:
                    await rt.sleep(0.01)
            await rt.sleep(1.0)

        rt.run(main())
        return ([p for _, p in tops[2].received],
                fabric.trace.metrics.counters("net."),
                fabric.trace.metrics.value("net.envelopes"))

    default_payloads, default_counts, default_envelopes = run(None)
    explicit_payloads, explicit_counts, _ = run(WireConfig())
    # The default config IS the old per-message path: one envelope per
    # send, and an explicitly-constructed default behaves identically.
    assert default_envelopes == default_counts["net.send"]
    assert explicit_payloads == default_payloads
    assert explicit_counts == default_counts


def test_batched_and_unbatched_deliver_the_same_messages():
    def run(batch):
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, wire=WireConfig(batch=batch))

        async def main():
            for i in range(20):
                await nodes[1].transport.push(2, i)
            await rt.sleep(1.0)

        rt.run(main())
        return ([p for _, p in tops[2].received],
                fabric.trace.metrics.value("net.envelopes"))

    plain, plain_envelopes = run(False)
    batched, batched_envelopes = run(True)
    assert batched == plain        # same payloads, same order
    assert plain_envelopes == 20
    # 16 at the default message cap + 4 on the round flush: 10x fewer.
    assert batched_envelopes == 2


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

def test_backpressure_blocks_senders_at_the_budget():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(queue_depth=2))
    metrics = fabric.trace.metrics
    done_at = []

    async def main():
        for i in range(6):
            await nodes[1].transport.push(2, i)
        done_at.append(rt.now())
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 6
    # Budget 2, delivery frees a credit after the 0.02s link delay: the
    # sender could not complete all six pushes at t=0.
    assert done_at[0] >= 0.04
    assert metrics.value("net.queue.waits") >= 2
    assert fabric.pipeline.inflight(1, 2) == 0
    assert metrics.gauge("net.queue.depth.1-2").value == 0


def test_backpressure_credits_return_on_drop_paths():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(42), wire=WireConfig(queue_depth=1),
        default_link=LinkSpec(delay=0.02, jitter=0.0, loss=1.0))

    async def main():
        for i in range(5):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    # Every message was lost, yet no sender deadlocked: the fabric
    # resolves dropped envelopes synchronously, returning the budget.
    assert tops[2].received == []
    assert fabric.trace.losses == 5
    assert fabric.pipeline.inflight(1, 2) == 0


def test_backpressure_credits_survive_duplication():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(3), wire=WireConfig(queue_depth=1),
        default_link=LinkSpec(delay=0.02, jitter=0.0, duplicate=1.0))

    async def main():
        for i in range(4):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    # Both copies of each send share one idempotent resolver: the budget
    # comes back exactly once per message, not once per copy.
    assert len(tops[2].received) == 8
    assert fabric.pipeline.inflight(1, 2) == 0
    assert fabric.pipeline._links[(1, 2)].credits.value == 1


# ----------------------------------------------------------------------
# Control fast lane (the heartbeat head-of-line regression)
# ----------------------------------------------------------------------

def _run_heartbeats_under_bulk_load(fast_lane):
    """Node 1 heartbeats node 2 while drowning the 1->2 link in bulk
    sends; returns the membership changes node 2's detector observed."""
    rt = SimRuntime()
    fabric, nodes, _ = build_pair(
        rt, wire=WireConfig(queue_depth=2, fast_lane=fast_lane))
    demuxes = {}
    for pid, node in nodes.items():
        demux = TypeDemux(f"hb-demux@{pid}")
        compose_stack(demux, node.transport)
        demuxes[pid] = demux
    sender = HeartbeatDetector(nodes[1], [2], interval=0.05,
                               suspect_after=3)
    demuxes[1].attach(Heartbeat, sender)
    monitor = HeartbeatDetector(nodes[2], [1], interval=0.05,
                                suspect_after=3)
    demuxes[2].attach(Heartbeat, monitor)
    changes = []
    monitor.listeners.append(lambda pid, change: changes.append(change))

    async def bulk(i):
        await nodes[1].transport.push(2, f"bulk-{i}")

    async def main():
        # 60 one-shot senders against a budget of 2 on a 0.02s link:
        # the queue drains at ~100 msgs/s, so the backlog takes ~0.6s —
        # far past the detector's 0.15s suspicion deadline.
        for i in range(60):
            nodes[1].spawn(bulk(i), name=f"bulk-{i}", daemon=True)
        sender.start()
        monitor.start()
        await rt.sleep(1.2)

    rt.run(main())
    return changes, fabric.trace.metrics.value("net.fastlane.sends")


def test_heartbeats_queued_behind_bulk_cause_false_suspicion():
    changes, fastlane_sends = _run_heartbeats_under_bulk_load(
        fast_lane=False)
    assert fastlane_sends == 0
    from repro.core.messages import MemChange
    assert MemChange.FAILURE in changes   # the regression


def test_fast_lane_prevents_false_suspicion_under_bulk_load():
    changes, fastlane_sends = _run_heartbeats_under_bulk_load(
        fast_lane=True)
    assert fastlane_sends > 0
    from repro.core.messages import MemChange
    assert MemChange.FAILURE not in changes


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------

def test_crash_drops_buffered_outbound_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        for i in range(3):
            await nodes[1].transport.push(2, i)
        assert fabric.pipeline.buffered(src=1) == 3
        nodes[1].crash()   # same round: the flush timer has not fired
        await rt.sleep(1.0)

    rt.run(main())
    # A down site cannot transmit: nothing escaped on the flush timer.
    assert tops[2].received == []
    assert fabric.pipeline.buffered() == 0
    assert fabric.trace.count("drop-src-down") == 3
    assert fabric.trace.metrics.value("net.batch.envelopes") == 0


def test_recovered_node_sends_again_through_the_pipeline():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "pre")
        nodes[1].crash()
        await rt.sleep(0.1)
        nodes[1].recover()
        await nodes[1].transport.push(2, "post")
        await rt.sleep(1.0)

    rt.run(main())
    assert [p for _, p in tops[2].received] == ["post"]


# ----------------------------------------------------------------------
# Per-link delivery metrics
# ----------------------------------------------------------------------

def test_link_metrics_record_per_link_delivery_and_latency():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, wire=WireConfig(batch=True, link_metrics=True))
    metrics = fabric.trace.metrics

    async def main():
        for i in range(5):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    assert metrics.value("net.link.delivered.1-2") == 5
    hist = metrics.histogram("net.link.latency.1-2")
    assert hist.count == 1    # one coalesced envelope
    assert hist.mean == pytest.approx(0.02)


# ----------------------------------------------------------------------
# End-to-end: full service stacks over a batching + budgeted pipeline
# ----------------------------------------------------------------------

def test_full_cluster_calls_work_over_batching_and_backpressure():
    cluster = ServiceCluster(
        ServiceSpec(bounded=5.0, unique=True), KVStore, n_servers=3,
        default_link=FAST,
        wire=WireConfig(batch=True, queue_depth=8))
    result = cluster.call_and_run("put", {"key": "k", "value": 7},
                                  extra_time=0.5)
    assert result.status is Status.OK
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert result.args == 7
    metrics = cluster.metrics
    assert metrics.value("net.batch.envelopes") > 0
    # Coalescing never costs envelopes (it only merges shared links).
    assert metrics.value("net.envelopes") <= metrics.value("net.send")


def test_asyncio_runtime_drives_the_same_pipeline():
    async def main():
        cluster = ServiceCluster(
            ServiceSpec(bounded=2.0), KVStore, n_servers=3,
            default_link=LinkSpec(delay=0.002, jitter=0.001),
            runtime=AsyncioRuntime(),
            wire=WireConfig(batch=True, queue_depth=8))
        result = await cluster.call(cluster.client, "put",
                                    {"key": "k", "value": "v"})
        assert result.status is Status.OK
        result = await cluster.call(cluster.client, "get", {"key": "k"})
        assert result.args == "v"
        await asyncio.sleep(0.05)
        assert cluster.metrics.value("net.envelopes") <= \
            cluster.metrics.value("net.send")

    asyncio.run(main())

