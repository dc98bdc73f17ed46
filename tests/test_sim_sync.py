"""Unit tests for semaphores, locks, events, and conditions."""

import pytest

from repro.errors import KernelError, TaskCancelled
from repro.sim import (
    Condition,
    Event,
    Kernel,
    Lock,
    Semaphore,
    sleep,
    spawn,
)


def test_semaphore_uncontended_acquire_does_not_yield():
    kernel = Kernel()
    order = []

    async def other():
        order.append("other")

    async def main():
        sem = Semaphore(1)
        await spawn(other())
        await sem.acquire()   # free: must not yield to `other`
        order.append("main")
        sem.release()
        await sleep(0)

    kernel.run(main())
    assert order == ["main", "other"]


def test_semaphore_blocks_at_zero_and_fifo_wakeup():
    kernel = Kernel()
    sem = Semaphore(0)
    order = []

    async def waiter(tag):
        await sem.acquire()
        order.append(tag)

    async def main():
        for tag in ("a", "b", "c"):
            await spawn(waiter(tag))
        await sleep(1)
        sem.release()
        sem.release()
        sem.release()
        await sleep(1)

    kernel.run(main())
    assert order == ["a", "b", "c"]


def test_semaphore_release_does_not_preempt():
    kernel = Kernel()
    sem = Semaphore(0)
    order = []

    async def waiter():
        await sem.acquire()
        order.append("waiter")

    async def main():
        await spawn(waiter())
        await sleep(1)
        sem.release()
        order.append("releaser-continues")
        await sleep(0)

    kernel.run(main())
    assert order == ["releaser-continues", "waiter"]


def test_semaphore_value_tracking():
    kernel = Kernel()

    async def main():
        sem = Semaphore(2)
        assert sem.value == 2
        await sem.acquire()
        await sem.acquire()
        assert sem.value == 0
        assert sem.locked()
        sem.release()
        assert sem.value == 1

    kernel.run(main())


def test_semaphore_negative_value_rejected():
    with pytest.raises(ValueError):
        Semaphore(-1)


def test_semaphore_reset_wakes_waiters():
    kernel = Kernel()
    sem = Semaphore(0)
    woken = []

    async def waiter(tag):
        await sem.acquire()
        woken.append(tag)

    async def main():
        await spawn(waiter("a"))
        await spawn(waiter("b"))
        await sleep(1)
        sem.reset(2)
        await sleep(1)

    kernel.run(main())
    assert woken == ["a", "b"]


def test_semaphore_context_manager():
    kernel = Kernel()

    async def main():
        sem = Semaphore(1)
        async with sem:
            assert sem.locked()
        assert sem.value == 1

    kernel.run(main())


def test_cancelled_waiter_is_removed_from_semaphore():
    kernel = Kernel()
    sem = Semaphore(0)
    outcome = []

    async def waiter():
        try:
            await sem.acquire()
            outcome.append("acquired")
        except TaskCancelled:
            outcome.append("cancelled")
            raise

    async def main():
        task = await spawn(waiter())
        await sleep(1)
        task.cancel()
        await sleep(0)
        sem.release()  # should not be consumed by the dead waiter
        assert sem.value == 1

    kernel.run(main())
    assert outcome == ["cancelled"]


def test_lock_release_unlocked_raises():
    kernel = Kernel()

    async def main():
        lock = Lock()
        with pytest.raises(KernelError):
            lock.release()
        await lock.acquire()
        lock.release()

    kernel.run(main())


def test_lock_mutual_exclusion():
    kernel = Kernel()
    lock = Lock()
    trace = []

    async def critical(tag):
        async with lock:
            trace.append((tag, "in"))
            await sleep(1)
            trace.append((tag, "out"))

    async def main():
        t1 = await spawn(critical("a"))
        t2 = await spawn(critical("b"))
        await t1.join()
        await t2.join()

    kernel.run(main())
    assert trace == [("a", "in"), ("a", "out"), ("b", "in"), ("b", "out")]


def test_event_set_wakes_all_waiters():
    kernel = Kernel()
    event = Event()
    woken = []

    async def waiter(tag):
        await event.wait()
        woken.append(tag)

    async def main():
        for tag in range(3):
            await spawn(waiter(tag))
        await sleep(1)
        assert not event.is_set()
        event.set()
        await sleep(0)
        await event.wait()  # already set: returns immediately

    kernel.run(main())
    assert woken == [0, 1, 2]


def test_event_clear_allows_rewait():
    kernel = Kernel()
    event = Event()

    async def main():
        event.set()
        await event.wait()
        event.clear()
        assert not event.is_set()

    kernel.run(main())


def test_condition_wait_notify():
    kernel = Kernel()
    cond = Condition()
    items = []
    got = []

    async def consumer():
        async with cond:
            while not items:
                await cond.wait()
            got.append(items.pop())

    async def main():
        task = await spawn(consumer())
        await sleep(1)
        async with cond:
            items.append("x")
            cond.notify()
        await task.join()

    kernel.run(main())
    assert got == ["x"]


def test_condition_wait_requires_lock():
    kernel = Kernel()

    async def main():
        cond = Condition()
        with pytest.raises(KernelError):
            await cond.wait()

    kernel.run(main())


def test_condition_notify_all():
    kernel = Kernel()
    cond = Condition()
    woken = []

    async def waiter(tag):
        async with cond:
            await cond.wait()
            woken.append(tag)

    async def main():
        tasks = [await spawn(waiter(i)) for i in range(3)]
        await sleep(1)
        async with cond:
            cond.notify_all()
        for t in tasks:
            await t.join()

    kernel.run(main())
    assert sorted(woken) == [0, 1, 2]
