"""A pinned digest of two seeded runs: same-instant ordering must not move.

Refactors of the scheduler or the message path promise byte-identical
virtual-time results.  This test holds them to it without the benchmark:
it runs

* a lossy 5-replica Total Order state machine (2 closed-loop clients),
* a node hosting two differently-configured services under heartbeat
  membership, one of whose servers crashes and recovers mid-run,

and digests every completed call's (virtual latency, status) together
with every ``net.*`` counter.  The links have no jitter, so many
messages land at the same virtual instant and their relative order
decides the outcome (which call the Total Order leader ranks first,
which retransmission a crash cancels).  The expected digests were recorded before
the arrival path was rebuilt around the per-node dispatch table; a
change that reorders work scheduled for the same virtual instant shifts
some latency or counter and fails here.

If a change alters these results on purpose, say why in the change
description and re-record the digests with :func:`digest_all`.
"""

import hashlib
import json

from repro import (
    Deployment,
    LinkSpec,
    read_optimized,
    replicated_state_machine,
)
from repro.apps import KVStore

#: sha256 of :func:`rsm_record` / :func:`two_service_record`.
EXPECTED = {
    "rsm":
        "cfd0d6c208cda425e0fb6fee33d48cc4aa2d2af0f9145efc3a92c96070d910f9",
    "two-service":
        "ff8a57e2a718db2bb6c527790febc8bca284280c28eae561c7bc5f58c1c18365",
}


def _digest(calls, metrics):
    counters = sorted((name, value) for name, value in
                      metrics.snapshot()["counters"].items()
                      if name.startswith("net.") and value)
    blob = json.dumps([[[repr(latency), status] for latency, status in calls],
                       counters])
    return hashlib.sha256(blob.encode()).hexdigest()


def _client(dep, calls, pid, service, lane, n):
    async def run():
        for i in range(n):
            key = f"{service}-{lane}-{i % 5}"
            begin = dep.runtime.now()
            if i % 2:
                result = await dep.call(pid, service, "get", {"key": key})
            else:
                result = await dep.call(pid, service, "put",
                                        {"key": key, "value": i})
            calls.append((dep.runtime.now() - begin, result.status.value))
    return run()


def rsm_record():
    dep = Deployment(seed=1000, keep_trace=False,
                     default_link=LinkSpec(delay=0.002, jitter=0.0,
                                           loss=0.05))
    svc = dep.add_service("rsm", replicated_state_machine(5), KVStore,
                          servers=5, clients=2)
    calls = []

    async def scenario():
        tasks = [dep.spawn_client(pid, _client(dep, calls, pid, "rsm",
                                               lane, 30))
                 for lane, pid in enumerate(svc.client_pids)]
        for task in tasks:
            await dep.runtime.join(task)

    dep.run_scenario(scenario())
    return _digest(calls, dep.metrics)


def two_service_record():
    dep = Deployment(seed=5, keep_trace=False, membership="heartbeat",
                     heartbeat_interval=0.05, suspect_after=3,
                     default_link=LinkSpec(delay=0.004, jitter=0.0,
                                           loss=0.05))
    dep.add_service("orders", replicated_state_machine(2), KVStore,
                    servers=[1, 2], clients=[101])
    dep.add_service("sessions", read_optimized(2.0), KVStore,
                    servers=[2, 3], clients=[101, 102])
    calls = []

    async def chaos():
        await dep.runtime.sleep(0.15)
        dep.crash(3)
        await dep.runtime.sleep(0.4)
        dep.recover(3)

    async def scenario():
        tasks = [dep.spawn_client(101, _client(dep, calls, 101, "orders",
                                               0, 25)),
                 dep.spawn_client(101, _client(dep, calls, 101, "sessions",
                                               1, 25)),
                 dep.spawn_client(102, _client(dep, calls, 102, "sessions",
                                               2, 25)),
                 dep.runtime.spawn(chaos(), name="chaos")]
        for task in tasks:
            await dep.runtime.join(task)

    dep.run_scenario(scenario())
    dep.shutdown()
    return _digest(calls, dep.metrics)


def digest_all():
    return {"rsm": rsm_record(), "two-service": two_service_record()}


def test_seeded_results_match_the_pinned_digests():
    assert digest_all() == EXPECTED
