"""The asyncio runtime: same protocol code, real event loop."""

import asyncio

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import CounterApp, KVStore
from repro.runtime import AsyncioRuntime

FAST = LinkSpec(delay=0.002, jitter=0.001)


def run(coro):
    return asyncio.run(coro)


def test_asyncio_semaphore_adapter():
    async def main():
        rt = AsyncioRuntime()
        sem = rt.semaphore(1)
        assert sem.value == 1
        await sem.acquire()
        assert sem.value == 0
        sem.release()
        assert sem.value == 1
        async with sem:
            assert sem.locked()

    run(main())


def test_asyncio_spawn_join_cancel():
    async def main():
        rt = AsyncioRuntime()

        async def work():
            await rt.sleep(0.01)
            return 42

        handle = rt.spawn(work(), name="worker")
        assert await rt.join(handle) == 42

        async def forever():
            await rt.sleep(100)

        handle = rt.spawn(forever(), daemon=True)
        await rt.sleep(0.01)
        rt.cancel(handle)
        with pytest.raises(asyncio.CancelledError):
            await rt.join(handle)

    run(main())


def test_end_to_end_call_on_asyncio():
    async def main():
        cluster = ServiceCluster(ServiceSpec(bounded=2.0), KVStore,
                                 n_servers=3, default_link=FAST,
                                 runtime=AsyncioRuntime())
        result = await cluster.call(cluster.client, "put",
                                    {"key": "k", "value": "v"})
        assert result.status is Status.OK
        result = await cluster.call(cluster.client, "get", {"key": "k"})
        assert result.args == "v"
        await asyncio.sleep(0.05)

    run(main())


def test_exactly_once_under_loss_on_asyncio():
    async def main():
        spec = ServiceSpec(bounded=5.0, unique=True, acceptance=3,
                           retrans_timeout=0.02)
        cluster = ServiceCluster(
            spec, CounterApp, n_servers=3,
            default_link=LinkSpec(delay=0.002, jitter=0.001, loss=0.2),
            runtime=AsyncioRuntime(), seed=3)
        for i in range(5):
            result = await cluster.call(cluster.client, "inc",
                                        {"amount": 1, "tag": i})
            assert result.status is Status.OK
        await asyncio.sleep(0.1)
        for pid in cluster.server_pids:
            assert cluster.app(pid).value == 5
            for tag in range(5):
                assert cluster.dispatcher(pid).executions(tag) == 1

    run(main())


def test_bounded_termination_real_time():
    async def main():
        import time
        cluster = ServiceCluster(ServiceSpec(bounded=0.2), KVStore,
                                 n_servers=1, default_link=FAST,
                                 runtime=AsyncioRuntime())
        cluster.crash(1)
        start = time.perf_counter()
        result = await cluster.call(cluster.client, "get", {"key": "k"})
        elapsed = time.perf_counter() - start
        assert result.status is Status.TIMEOUT
        assert 0.15 < elapsed < 1.0

    run(main())


def test_deployment_with_two_services_on_asyncio():
    """A multi-service Deployment runs on asyncio: arrivals take the same
    dispatch-table path, started with a plain spawn."""
    from repro import Deployment, read_optimized

    async def main():
        dep = Deployment(seed=2, default_link=FAST,
                         runtime=AsyncioRuntime())
        dep.add_service("a", read_optimized(2.0), KVStore,
                        servers=[1, 2], clients=[101])
        dep.add_service("b", read_optimized(2.0), CounterApp,
                        servers=[2], clients=[101])
        put = await dep.call(101, "a", "put", {"key": "k", "value": 1})
        inc = await dep.call(101, "b", "inc", {"amount": 3})
        assert put.status is Status.OK and inc.status is Status.OK
        assert dep.services["a"].app(2).data == {"k": 1}
        assert dep.services["b"].app(2).value == 3
        await asyncio.sleep(0.05)

    run(main())
