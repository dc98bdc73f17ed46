"""The call gate: the one parking mechanism behind adaptation, placement
and replica-group write parking.

Covers FIFO wakeup of parked calls, predicate parking (only blocked keys
wait), draining (only blocked keys inside are waited for, and the drain
wakes at the last such ``leave``), and cancellation while parked.
"""

import pytest

from repro.core.gate import CallGate
from repro.errors import TaskCancelled
from repro.obs import MetricsRegistry
from repro.runtime import SimRuntime


def make_gate():
    runtime = SimRuntime()
    metrics = MetricsRegistry()
    return runtime, metrics, CallGate(runtime, metrics, "test.parked")


def test_waiters_wake_in_fifo_order():
    runtime, metrics, gate = make_gate()
    woke = []

    async def caller(n):
        await gate.park("k")
        woke.append(n)

    async def main():
        gate.close()
        tasks = [runtime.spawn(caller(n)) for n in range(4)]
        await runtime.sleep(1.0)
        assert woke == []
        gate.open()
        for task in tasks:
            await runtime.join(task)

    runtime.run(main())
    assert woke == [0, 1, 2, 3]
    assert gate.parked == 4
    assert metrics.value("test.parked") == 4


def test_predicate_parks_only_blocked_keys():
    runtime, metrics, gate = make_gate()
    passed = []

    async def caller(key):
        await gate.park(key)
        passed.append((key, runtime.now()))

    async def main():
        gate.close({"hot"}.__contains__)
        hot = runtime.spawn(caller("hot"))
        cold = runtime.spawn(caller("cold"))
        await runtime.join(cold)
        await runtime.sleep(0.5)
        gate.open()
        await runtime.join(hot)

    runtime.run(main())
    assert passed == [("cold", 0.0), ("hot", 0.5)]
    assert metrics.value("test.parked") == 1


def test_closing_resets_the_parked_count_and_a_quiet_gate_registers_nothing():
    runtime, metrics, gate = make_gate()

    async def main():
        gate.close()
        gate.open()
        await gate.park("k")            # open: no wait, no count

    runtime.run(main())
    assert gate.parked == 0
    assert "test.parked" not in metrics.counter_names()


def test_drain_waits_only_for_blocked_keys_inside():
    runtime, _, gate = make_gate()
    log = []

    async def drainer():
        await gate.drain()
        log.append(("drained", runtime.now()))

    async def main():
        for key in ("m1", "m2", "other"):
            gate.enter(key)
        gate.close(lambda key: key.startswith("m"))
        task = runtime.spawn(drainer())
        await runtime.sleep(0.1)
        gate.leave("other")             # not blocked: the drain waits on
        await runtime.sleep(0.1)
        gate.leave("m1")
        await runtime.sleep(0.1)
        assert log == []
        gate.leave("m2")                # the last blocked call is out
        await runtime.join(task)

    runtime.run(main())
    assert log == [("drained", pytest.approx(0.3))]
    assert gate.inside == {}


def test_drain_returns_at_once_with_only_unblocked_keys_inside():
    runtime, _, gate = make_gate()

    async def main():
        gate.enter("other")
        gate.close({"m"}.__contains__)
        await gate.drain()
        return runtime.now()

    assert runtime.run(main()) == 0.0


def test_cancelled_parked_call_leaves_nothing_inside():
    runtime, _, gate = make_gate()
    outcome = []

    async def call(key):
        await gate.park(key)
        gate.enter(key)
        try:
            await runtime.sleep(1.0)
        finally:
            gate.leave(key)

    async def main():
        gate.close()
        task = runtime.spawn(call("k"))
        await runtime.sleep(0.1)
        runtime.cancel(task)
        try:
            await runtime.join(task)
        except TaskCancelled:
            outcome.append("cancelled")
        assert gate.inside == {}
        await gate.drain()              # nothing inside: no wait
        gate.open()

    runtime.run(main())
    assert outcome == ["cancelled"]
