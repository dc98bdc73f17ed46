"""Unit tests for the network substrate: fabric, nodes, transport."""

import pytest

from repro.errors import NodeDown, ReproError
from repro.net import (
    Group,
    LinkSpec,
    NetworkFabric,
    Node,
    UnreliableTransport,
)
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import Protocol, compose_stack


class Collector(Protocol):
    """Top protocol recording everything popped up to it."""

    def __init__(self, name="collector"):
        super().__init__(name)
        self.received = []

    async def pop(self, payload, sender):
        self.received.append((sender, payload))


def build_pair(runtime, **fabric_kwargs):
    fabric = NetworkFabric(runtime, **fabric_kwargs)
    nodes, tops = {}, {}
    for pid in (1, 2):
        node = Node(pid, runtime, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        nodes[pid], tops[pid] = node, top
    return fabric, nodes, tops


def test_basic_delivery():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        await nodes[1].transport.push(2, "hello")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "hello")]
    assert fabric.trace.sends == 1
    assert fabric.trace.deliveries == 1


def test_delivery_takes_link_delay():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.2, jitter=0.0))
    arrival = []

    async def main():
        await nodes[1].transport.push(2, "x")
        await rt.sleep(1.0)

    fabric.trace.observers.append(
        lambda e: arrival.append(e.time) if e.kind == "deliver" else None)
    rt.run(main())
    assert arrival == [pytest.approx(0.2)]


def test_loss_drops_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(42),
        default_link=LinkSpec(loss=1.0))

    async def main():
        for _ in range(5):
            await nodes[1].transport.push(2, "gone")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == []
    assert fabric.trace.losses == 5


def test_statistical_loss_rate():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(7), default_link=LinkSpec(loss=0.3))

    async def main():
        for i in range(500):
            await nodes[1].transport.push(2, i)
        await rt.sleep(5.0)

    rt.run(main())
    delivered = len(tops[2].received)
    assert 290 < delivered < 410  # ~350 expected


def test_duplication():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(3), default_link=LinkSpec(duplicate=1.0))

    async def main():
        await nodes[1].transport.push(2, "twice")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "twice"), (1, "twice")]
    assert fabric.trace.duplicates == 1


def test_reordering_from_jitter():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(11),
        default_link=LinkSpec(delay=0.01, jitter=0.10))

    async def main():
        for i in range(50):
            await nodes[1].transport.push(2, i)
        await rt.sleep(2.0)

    rt.run(main())
    payloads = [p for _, p in tops[2].received]
    assert len(payloads) == 50
    assert payloads != sorted(payloads)  # jitter reorders


def test_spike_delay():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.01, jitter=0.0,
                                  spike_prob=1.0, spike_delay=2.0))
    times = []
    fabric.trace.observers.append(
        lambda e: times.append(e.time) if e.kind == "deliver" else None)

    async def main():
        await nodes[1].transport.push(2, "slow")
        await rt.sleep(5.0)

    rt.run(main())
    assert times == [pytest.approx(2.01)]


def test_partition_blocks_and_heals():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        fabric.partition([1], [2])
        await nodes[1].transport.push(2, "blocked")
        await rt.sleep(1.0)
        fabric.heal()
        await nodes[1].transport.push(2, "through")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "through")]
    assert fabric.trace.count("drop-partition") == 1


def test_filter_drop_and_removal():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        remove = fabric.add_filter(lambda env: env.payload != "bad")
        await nodes[1].transport.push(2, "bad")
        await nodes[1].transport.push(2, "good")
        await rt.sleep(1.0)
        remove()
        await nodes[1].transport.push(2, "bad")
        await rt.sleep(1.0)

    rt.run(main())
    assert [p for _, p in tops[2].received] == ["good", "bad"]


def test_delivery_to_down_node_dropped():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        nodes[2].crash()
        await nodes[1].transport.push(2, "lost")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == []
    assert fabric.trace.count("drop-dead") == 1


def test_crash_cancels_node_tasks_and_clears_inbox():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    progress = []

    async def long_task():
        progress.append("start")
        await rt.sleep(100)
        progress.append("end")  # must never happen

    async def main():
        nodes[2].spawn(long_task())
        await rt.sleep(1.0)
        nodes[2].crash()
        await rt.sleep(200)

    rt.run(main())
    assert progress == ["start"]


def test_message_in_flight_to_crashing_node_lost():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=1.0, jitter=0.0))

    async def main():
        await nodes[1].transport.push(2, "in-flight")
        await rt.sleep(0.5)
        nodes[2].crash()
        await rt.sleep(2.0)

    rt.run(main())
    assert tops[2].received == []


def test_recovery_bumps_incarnation_and_restarts_delivery():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    recoveries = []
    nodes[2].recover_listeners.append(recoveries.append)

    async def main():
        nodes[2].crash()
        await rt.sleep(1.0)
        nodes[2].recover()
        await nodes[1].transport.push(2, "after")
        await rt.sleep(1.0)

    rt.run(main())
    assert recoveries == [2]
    assert nodes[2].incarnation == 2
    assert tops[2].received == [(1, "after")]


def test_crash_listener_fires():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    crashed = []
    nodes[1].crash_listeners.append(lambda: crashed.append(True))

    async def main():
        nodes[1].crash()

    rt.run(main())
    assert crashed == [True]


def test_spawn_on_down_node_raises():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def never():
        pass  # pragma: no cover

    async def main():
        nodes[1].crash()
        with pytest.raises(NodeDown):
            nodes[1].spawn(never())

    rt.run(main())


def test_multicast_reaches_all_members():
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    tops = {}
    for pid in (1, 2, 3, 4):
        node = Node(pid, rt, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        tops[pid] = top
    group = Group("servers", [2, 3, 4])

    async def main():
        await fabric.node(1).transport.push(group, "all")
        await rt.sleep(1.0)

    rt.run(main())
    for pid in (2, 3, 4):
        assert tops[pid].received == [(1, "all")]
    assert tops[1].received == []


def test_group_properties_and_leader():
    group = Group("g", [3, 1, 2, 2])
    assert group.members == (1, 2, 3)
    assert len(group) == 3
    assert 2 in group
    assert group.leader() == 3
    assert group.leader(alive={1, 2}) == 2
    with pytest.raises(ValueError):
        group.leader(alive=set())
    with pytest.raises(ValueError):
        Group("empty", [])


def test_per_link_override_and_slow_site():
    rt = SimRuntime()
    fabric = NetworkFabric(rt, default_link=LinkSpec(delay=0.01, jitter=0.0))
    tops = {}
    for pid in (1, 2, 3):
        node = Node(pid, rt, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        tops[pid] = top
    fabric.set_links_to(3, LinkSpec(delay=1.0, jitter=0.0))
    times = {}

    def observe(e):
        if e.kind == "deliver":
            times[e.fields["dst"]] = e.time
    fabric.trace.observers.append(observe)

    async def main():
        await fabric.node(1).transport.push(2, "fast")
        await fabric.node(1).transport.push(3, "slow")
        await rt.sleep(5.0)

    rt.run(main())
    assert times[2] == pytest.approx(0.01)
    assert times[3] == pytest.approx(1.0)


def test_fabric_determinism_across_runs():
    def run_once():
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, rand=RandomSource(99),
            default_link=LinkSpec(delay=0.01, jitter=0.05, loss=0.2,
                                  duplicate=0.1))

        async def main():
            for i in range(100):
                await nodes[1].transport.push(2, i)
            await rt.sleep(10.0)

        rt.run(main())
        return [p for _, p in tops[2].received]

    assert run_once() == run_once()


def test_alive_pids_tracks_crashes():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    assert fabric.alive_pids() == {1, 2}

    async def main():
        nodes[1].crash()

    rt.run(main())
    assert fabric.alive_pids() == {2}


# ----------------------------------------------------------------------
# The arrival path: one task per arrival, started by the delivery timer
# ----------------------------------------------------------------------

class Gate(Protocol):
    """Top protocol whose ``pop`` parks on a semaphore for "block"
    payloads and records everything else at once."""

    def __init__(self, runtime):
        super().__init__("gate")
        self.sem = runtime.semaphore(0)
        self.received = []
        self.cancelled = []

    async def pop(self, payload, sender):
        if payload == "block":
            try:
                await self.sem.acquire()
            except BaseException:
                self.cancelled.append(payload)
                raise
        self.received.append(payload)


def build_gated_pair(rt, **fabric_kwargs):
    fabric = NetworkFabric(rt, **fabric_kwargs)
    nodes = {}
    for pid in (1, 2, 3):
        nodes[pid] = Node(pid, rt, fabric)
        UnreliableTransport(nodes[pid])
        nodes[pid].start()
    gate = Gate(rt)
    compose_stack(gate, nodes[2].transport)
    return fabric, nodes, gate


def test_same_instant_arrivals_dispatch_in_arrival_order():
    rt = SimRuntime()
    fabric = NetworkFabric(rt, default_link=LinkSpec(delay=0.1, jitter=0.0))
    nodes = {pid: Node(pid, rt, fabric) for pid in (1, 2, 3)}
    for node in nodes.values():
        UnreliableTransport(node)
        node.start()
    arrivals = []

    class Clock(Protocol):
        async def pop(self, payload, sender):
            arrivals.append((payload, rt.now()))

    compose_stack(Clock("clock"), nodes[2].transport)

    async def main():
        await nodes[1].transport.push(2, "a0")
        await nodes[3].transport.push(2, "b0")
        await nodes[1].transport.push(2, "a1")
        await rt.sleep(1.0)

    rt.run(main())
    # All three land at the same virtual instant, in send order, even
    # across senders.
    assert [p for p, _ in arrivals] == ["a0", "b0", "a1"]
    assert len({t for _, t in arrivals}) == 1


def test_arrival_costs_one_spawn_and_one_step():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.1, jitter=0.0))

    async def main():
        await nodes[1].transport.push(2, "x")

    rt.run(main())
    kernel = rt.kernel
    spawned, steps = kernel.tasks_spawned, kernel.steps_executed
    rt.run_for(1.0)
    assert tops[2].received == [(1, "x")]
    # No receive loop: the delivery timer starts the arrival task and
    # runs it to completion in place.
    assert kernel.tasks_spawned - spawned == 1
    assert kernel.steps_executed - steps == 1
    # A chain that finished within its first step never joined the
    # node's scope.
    assert nodes[2].scope._handles == []


def test_blocked_arrival_chain_does_not_stall_the_next():
    rt = SimRuntime()
    fabric, nodes, gate = build_gated_pair(
        rt, default_link=LinkSpec(delay=0.1, jitter=0.0))

    async def main():
        await nodes[1].transport.push(2, "block")
        await nodes[3].transport.push(2, "next")
        await rt.sleep(1.0)
        assert gate.received == ["next"]
        gate.sem.release()
        await rt.sleep(0.1)

    rt.run(main())
    assert gate.received == ["next", "block"]


def test_crash_cancels_a_parked_arrival_chain():
    rt = SimRuntime()
    fabric, nodes, gate = build_gated_pair(
        rt, default_link=LinkSpec(delay=0.1, jitter=0.0))

    async def main():
        await nodes[1].transport.push(2, "block")
        await rt.sleep(0.5)
        # The parked chain outlived its first step: it sits in the
        # node's scope, where the crash finds it.
        assert len(nodes[2].scope._handles) == 1
        nodes[2].crash()
        await rt.sleep(0.1)
        assert gate.cancelled == ["block"]
        # Nothing is dispatched to a down node.
        await nodes[1].transport.push(2, "late")
        await rt.sleep(0.5)

    rt.run(main())
    assert gate.received == []
    assert fabric.trace.count("drop-dead") == 1


def test_hand_built_stack_receives_through_transport_upper():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    # compose_stack(top, transport) leaves the dispatch table empty:
    # arrivals go to transport.upper.
    assert nodes[2].transport.table.lookup("hello") is None
    assert nodes[2].transport.upper_for("hello") is tops[2]

    async def main():
        await nodes[1].transport.push(2, "hello")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "hello")]


def test_dispatch_table_routes_by_class_and_service():
    from repro.xkernel import DispatchTable

    class Msg:
        def __init__(self, service):
            self.service = service

    class SubMsg(Msg):
        pass

    class Beat:
        pass

    a, b, beats = Collector("a"), Collector("b"), Collector("beats")
    table = DispatchTable()
    table.attach(Msg, a, "a")
    table.attach(Msg, b, "b")
    table.attach(Beat, beats)
    assert table.lookup(Msg("a")) is a
    assert table.lookup(Msg("b")) is b
    assert table.lookup(Msg("unknown")) is a     # first service
    assert table.lookup(SubMsg("b")) is b        # subclass of Msg
    assert table.lookup(Beat()) is beats
    assert table.lookup("unclaimed") is None
    assert table.services(Msg) == ["a", "b"]
    with pytest.raises(ReproError):
        table.attach(Msg, b, "a")


def test_arrival_due_at_shutdown_is_not_processed():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.1, jitter=0.0))

    async def sender():
        await nodes[1].transport.push(2, "late")

    async def main():
        rt.spawn(sender())
        # Our wake-up is queued before the delivery at the same instant,
        # so the run ends with that delivery still due: the shutdown
        # drain fires it, but teardown starts no new work.
        await rt.sleep(0.1)

    rt.run(main())
    assert fabric.trace.deliveries == 1
    assert tops[2].received == []
    assert rt.kernel.live_tasks() == []
