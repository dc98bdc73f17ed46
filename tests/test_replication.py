"""Replicated shard groups: per-shard configurable consistency.

Covers the :class:`~repro.replication.spec.ReplicaSpec` validation story
(Figure-4 graph plus the replication-mode edges, enforced at deployment
build time), active fan-out with round-robin read narrowing (and the
ordered-composition rule that disables it), passive primary-backup state
transfer, deterministic election / promotion / demotion, failover under
in-flight writes with zero acknowledged-write loss, reply-cache retry
dedup across a promotion, resync of recovered replicas, the
:class:`~repro.placement.driver.RebindDriver`'s drain-averting revive,
and replica groups under the elastic placement plane.
"""

import pytest

from repro import Deployment, ServiceSpec, build_elastic_kv
from repro.apps import KVStore, StableKVStore, build_sharded_kv
from repro.errors import ConfigurationError, DependencyError, ReproError
from repro.replication import (
    ReplicaSpec,
    ReplicationManager,
    active_replicas,
    primary_backup,
)
from repro.replication.spec import forward_state, replication_edges


# ---------------------------------------------------------------------------
# ReplicaSpec validation: Figure 4 plus the replication-mode edges
# ---------------------------------------------------------------------------


def test_presets_validate():
    active_replicas(3).service_spec()
    active_replicas(1, ordering="total").service_spec()
    primary_backup(3).service_spec()
    primary_backup(2, bounded=1.0, read_from="primary").service_spec()


def test_bad_shape_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        ReplicaSpec(replicas=0).service_spec()
    with pytest.raises(ConfigurationError):
        ReplicaSpec(mode="chain").service_spec()
    with pytest.raises(ConfigurationError):
        ReplicaSpec(read_from="nearest").service_spec()


def test_passive_requires_acceptance_one():
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                       ordering="none", acceptance=2)
    with pytest.raises(DependencyError, match="[Aa]cceptance"):
        ReplicaSpec(mode="passive", spec=spec).service_spec()


@pytest.mark.parametrize("ordering", ["fifo", "total"])
def test_passive_rejects_ordered_delivery(ordering):
    # Writes execute on the primary alone; an ordering gate at the
    # backups would wait forever for calls they will never see.
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                       ordering=ordering, acceptance=1)
    with pytest.raises(DependencyError, match="Passive_Replication"):
        ReplicaSpec(mode="passive", spec=spec).service_spec()


def test_active_group_requires_unique_execution():
    spec = ServiceSpec(reliable=True, execution="serial",
                       ordering="none", acceptance=1)
    with pytest.raises(DependencyError, match="Unique_Execution"):
        ReplicaSpec(mode="active", replicas=3, spec=spec).service_spec()
    # A single replica has nothing to diverge from.
    ReplicaSpec(mode="active", replicas=1, spec=spec).service_spec()


def test_replication_edges_shape_matches_figure4():
    edges = replication_edges()
    assert all(len(edge) == 2 for edge in edges)
    assert ("Passive_Replication", "Acceptance(1)") in edges


def test_reads_narrow_only_without_ordering():
    assert active_replicas(3).reads_narrow
    assert not active_replicas(3, ordering="fifo").reads_narrow
    assert not active_replicas(3, ordering="total").reads_narrow


def test_forward_state_translations():
    assert forward_state("put", {"key": "k", "value": 7}) == \
        ("ingest", {"entries": {"k": 7}})
    assert forward_state("delete", {"key": "k"}) == \
        ("drop_keys", {"keys": ["k"]})
    assert forward_state("ingest", {"entries": {"a": 1}}) == \
        ("ingest", {"entries": {"a": 1}})
    assert forward_state("compact", {}) is None


def test_build_fails_whole_deployment_on_illegal_shard():
    dep = Deployment(seed=40)
    bad = ReplicaSpec(mode="passive", spec=ServiceSpec(
        reliable=True, unique=True, execution="serial",
        ordering="fifo", acceptance=1))
    with pytest.raises(DependencyError):
        build_sharded_kv(dep, 3,
                         replication=[active_replicas(2), bad,
                                      active_replicas(2)])
    # Shard 0 validated fine, but nothing was deployed.
    assert dep.services == {}


def test_replication_excludes_manual_spec_arguments():
    dep = Deployment(seed=40)
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 2, replication=active_replicas(2),
                         servers_per_shard=2)
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 2, replication=[active_replicas(2)])


def test_replica_count_must_match_deployed_servers():
    dep = Deployment(seed=41)
    dep.add_service("s", active_replicas(3).service_spec(), KVStore,
                    servers=2, clients=1)
    with pytest.raises(ReproError, match="2 servers"):
        ReplicationManager.ensure(dep).replicate("s", active_replicas(3))


def test_one_group_per_service_and_one_manager_per_deployment():
    dep = Deployment(seed=41)
    dep.add_service("s", active_replicas(2).service_spec(), KVStore,
                    servers=2, clients=1)
    manager = ReplicationManager.ensure(dep)
    assert ReplicationManager.ensure(dep) is manager
    with pytest.raises(ReproError):
        ReplicationManager(dep)
    manager.replicate("s", active_replicas(2))
    with pytest.raises(ReproError):
        manager.replicate("s", active_replicas(2))


# ---------------------------------------------------------------------------
# Active replication: fan-out writes, narrowed reads
# ---------------------------------------------------------------------------


def test_active_writes_reach_every_replica():
    dep = Deployment(seed=42)
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))

    async def scenario():
        for i in range(5):
            assert (await kv.put(f"k{i}", i)).ok

    dep.run_scenario(scenario())
    svc = dep.services["shard-0"]
    expected = {f"k{i}": i for i in range(5)}
    for pid in svc.server_pids:
        assert svc.app(pid).data == expected


def test_active_reads_round_robin_over_replicas():
    dep = Deployment(seed=42)
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    group = dep.replication.group("shard-0")
    targets = []
    original = group._read_target

    def spy(bound):
        narrowed = original(bound)
        targets.append(tuple(narrowed.members))
        return narrowed
    group._read_target = spy

    async def scenario():
        assert (await kv.put("k", 1)).ok
        for _ in range(6):
            assert (await kv.get("k")).args == 1

    dep.run_scenario(scenario())
    assert len(targets) == 6
    assert all(len(t) == 1 for t in targets)            # narrowed
    assert set(t[0] for t in targets) == set(group.members)
    assert dep.metrics.value("repl.reads.routed") == 6


def test_ordered_composition_serves_reads_through_full_group():
    """Regression: under FIFO ordering a read narrowed to one replica
    consumes a per-client sequence number the other replicas never see,
    parking every later fan-out write forever.  Ordered compositions
    must send reads to the whole group instead."""
    dep = Deployment(seed=43)
    kv = build_sharded_kv(dep, 1,
                          replication=active_replicas(3, ordering="fifo"))

    async def scenario():
        for i in range(4):                # write-read interleave
            assert (await kv.put(f"k{i}", i)).ok
            assert (await kv.get(f"k{i}")).args == i

    dep.run_scenario(scenario())
    assert dep.metrics.value("repl.reads.routed") == 0   # never narrowed


def test_active_group_survives_replica_crash():
    dep = Deployment(seed=44, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    dep.auto_rebind()

    async def before():
        for i in range(4):
            assert (await kv.put(f"k{i}", i)).ok

    dep.run_scenario(before())
    victim = dep.services["shard-0"].server_pids[0]
    dep.crash(victim)
    assert dep.replication.live_members("shard-0") == \
        [p for p in dep.services["shard-0"].server_pids if p != victim]

    async def after():
        for i in range(4):
            result = await kv.get(f"k{i}")
            assert result.ok and result.args == i
        assert (await kv.put("late", 9)).ok

    dep.run_scenario(after())
    assert dep.metrics.value("repl.shrinks") == 1


# ---------------------------------------------------------------------------
# Passive replication: primary-backup state transfer
# ---------------------------------------------------------------------------


def test_passive_backups_ingest_state_not_procedures():
    dep = Deployment(seed=45)
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    svc = dep.services["shard-0"]
    assert group.primary == max(svc.server_pids)   # the paper's leader

    async def scenario():
        assert (await kv.put("a", 1)).ok
        assert (await kv.put("b", 2)).ok
        assert (await kv.delete("a")).ok

    dep.run_scenario(scenario())
    primary_log = svc.app(group.primary).apply_log
    assert [kind for kind, *_ in primary_log] == ["put", "put", "delete"]
    for pid in svc.server_pids:
        assert svc.app(pid).data == {"b": 2}       # all converged
        if pid != group.primary:
            # Backups receive the *resulting state*, never the write op.
            kinds = {kind for kind, *_ in svc.app(pid).apply_log}
            assert kinds <= {"ingest", "drop"}
    assert dep.metrics.value("repl.sync.calls") == 6   # 3 writes x 2


def test_passive_reads_can_pin_to_the_primary():
    dep = Deployment(seed=45)
    kv = build_sharded_kv(
        dep, 1, replication=primary_backup(3, read_from="primary"))
    group = dep.replication.group("shard-0")
    targets = []
    original = group._read_target

    def spy(bound):
        narrowed = original(bound)
        targets.append(tuple(narrowed.members))
        return narrowed
    group._read_target = spy

    async def scenario():
        assert (await kv.put("a", 1)).ok
        for _ in range(3):
            assert (await kv.get("a")).args == 1

    dep.run_scenario(scenario())
    assert targets == [(group.primary,)] * 3


def test_promotion_is_deterministic_and_taped():
    dep = Deployment(seed=46, membership="oracle", observatory=True)
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    pids = sorted(group.members)

    async def write():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(write())
    assert group.primary == pids[-1]
    dep.crash(pids[-1])
    assert group.primary == pids[-2]       # next-largest in-sync pid
    dep.crash(pids[-2])
    assert group.primary == pids[-3]
    assert dep.metrics.value("repl.promotions") == 2
    tape = [record.fields for _seq, record in dep.flight.entries()
            if record.kind == "repl-promote"]
    assert [fields["primary"] for fields in tape] == \
        [pids[-2], pids[-3]]

    async def read():
        assert (await kv.get("a")).args == 1   # sole survivor serves

    dep.run_scenario(read())


def test_passive_failover_loses_no_acknowledged_write():
    dep = Deployment(seed=47, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    writes = {f"k{i}": i for i in range(8)}

    async def phase1():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(phase1())
    dep.crash(group.primary)

    async def phase2():
        for key, value in writes.items():      # every ack survives
            result = await kv.get(key)
            assert result.ok and result.args == value, key
        assert (await kv.put("post", 99)).ok   # new primary writes

    dep.run_scenario(phase2())
    assert dep.metrics.value("repl.promotions") == 1


def test_failover_under_in_flight_write_retries_transparently():
    """Crash the primary while a write executes on it: the write
    surfaces as a TIMEOUT inside the group, is parked until promotion,
    and is re-issued against the new primary — the caller just sees OK.
    """
    dep = Deployment(seed=48, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    old_primary = group.primary

    async def scenario():
        async def slow_write():
            # Executes for 1.0s of virtual time on the primary.
            return await kv.put("inflight", 1, delay=1.0)
        handle = dep.runtime.spawn(slow_write(), name="writer")
        await dep.runtime.sleep(0.3)          # write is now executing
        dep.crash(old_primary)                # ... and its server dies
        result = await dep.runtime.join(handle)
        assert result.ok                      # transparently retried
        assert (await kv.get("inflight")).args == 1

    dep.run_scenario(scenario())
    assert group.primary != old_primary
    assert dep.metrics.value("repl.failover.retries") == 1
    # The retry executed exactly once on the new primary.
    svc = dep.services["shard-0"]
    log = svc.app(group.primary).apply_log
    assert [e for e in log if e[0] == "put" and e[1] == "inflight"] == \
        [("put", "inflight", 1)]


def test_retry_of_dedups_across_promotion():
    """A client retry (``retry_of=``) of an acknowledged write must be
    answered from the reply cache even when the original primary has
    since crashed and a backup was promoted — never re-executed."""
    dep = Deployment(seed=49, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    svc = dep.services["shard-0"]
    first = {}

    async def phase1():
        first["result"] = await kv.put("k", "v1")
        assert first["result"].ok

    dep.run_scenario(phase1())
    dep.crash(group.primary)                  # ack'd; then primary dies

    async def phase2():
        retried = await dep.call(kv.client_pid, "shard-0", "put",
                                 {"key": "k", "value": "v1"},
                                 retry_of=first["result"].id)
        assert retried.ok
        assert retried.args == first["result"].args

    dep.run_scenario(phase2())
    assert dep.metrics.value(
        "service.shard-0.reply_cache.hits") == 1
    # The new primary never executed the retried write a second time.
    puts = [e for e in svc.app(group.primary).apply_log
            if e[0] == "put"]
    assert puts == []                         # backup only ever ingested


# ---------------------------------------------------------------------------
# Recovery: resync, parked writes, demotion on rejoin
# ---------------------------------------------------------------------------


def test_recovered_replica_resyncs_before_serving():
    dep = Deployment(seed=50, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3),
                          app_factory=StableKVStore)
    group = dep.replication.group("shard-0")
    old_primary = group.primary
    svc = dep.services["shard-0"]

    async def phase1():
        assert (await kv.put("keep", 1)).ok
        assert (await kv.put("stale", 1)).ok

    dep.run_scenario(phase1())
    dep.crash(old_primary)

    async def phase2():
        assert (await kv.delete("stale")).ok   # old primary missed this
        assert (await kv.put("fresh", 2)).ok

    dep.run_scenario(phase2())
    dep.recover(old_primary)                   # reloads pre-crash state
    assert old_primary not in group.synced     # not electable yet
    dep.settle(2.0)                            # resync runs
    assert old_primary in group.synced
    assert group.primary == old_primary        # largest pid takes back
    assert dep.metrics.value("repl.resyncs") == 1
    assert dep.metrics.value("repl.demotions") == 1
    # Stale state was dropped, missed writes transferred.
    assert svc.app(old_primary).data == {"keep": 1, "fresh": 2}

    async def phase3():
        assert (await kv.get("fresh")).args == 2

    dep.run_scenario(phase3())


def test_writes_park_during_resync_and_drain():
    dep = Deployment(seed=51, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    backup = min(group.members)

    async def phase1():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(phase1())
    dep.crash(backup)
    dep.recover(backup)        # queues the resync daemon

    async def racing_write():
        # The resync task was queued first, so it blocks writes before
        # this runs; the write parks and drains after the transfer.
        result = await kv.put("b", 2)
        assert result.ok

    dep.run_scenario(racing_write())
    assert dep.metrics.value("repl.parked_writes") >= 1
    assert dep.metrics.value("repl.resyncs") == 1

    async def verify():
        assert (await kv.get("b")).args == 2

    dep.run_scenario(verify())


def test_passive_group_without_resync_elects_after_total_outage():
    """With resync off, the first replica back after a total outage is
    elected outright: a later write must not park forever."""
    dep = Deployment(seed=53, membership="oracle")
    kv = build_sharded_kv(dep, 1,
                          replication=primary_backup(2, resync=False))
    group = dep.replication.group("shard-0")
    low, high = sorted(group.members)
    dep.crash(high)
    dep.crash(low)
    assert group.primary is None and group.gate.closed
    dep.recover(low)
    assert group.primary == low and not group.gate.closed
    results = []

    async def write():
        results.append(await kv.put("after", 1))

    async def scenario():
        dep.runtime.spawn(write(), name="writer", daemon=True)
        await dep.runtime.sleep(20.0)

    dep.run_scenario(scenario())
    assert len(results) == 1 and results[0].ok


# ---------------------------------------------------------------------------
# Placement integration: revive instead of drain, elastic replica groups
# ---------------------------------------------------------------------------


def test_driver_revives_binding_from_unbound_live_replica():
    dep = Deployment(seed=52, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    dep.auto_rebind(regrow=False)
    group = dep.replication.group("shard-0")
    p1, p2, p3 = sorted(group.members)

    async def seed_data():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(seed_data())
    dep.crash(p1)
    dep.recover(p1)
    dep.settle(2.0)            # p1 resyncs but stays out of the binding
    assert dep.registry.lookup("shard-0").members == (p2, p3)
    dep.crash(p2)
    assert dep.registry.lookup("shard-0").members == (p3,)
    # Last bound server dies; p1 is alive outside the binding, so the
    # driver re-points the binding instead of declaring the shard dead.
    dep.crash(p3)
    assert dep.registry.lookup("shard-0").members == (p1,)
    assert dep.metrics.value("placement.rebind.revive") == 1

    async def still_serving():
        assert (await kv.get("a")).args == 1
        assert (await kv.put("b", 2)).ok

    dep.run_scenario(still_serving())


def test_elastic_plane_hosts_replica_groups():
    dep = Deployment(seed=53)
    plane, kv = build_elastic_kv(dep, 2, replication=primary_backup(2))
    assert set(dep.replication.groups) == {"shard-0", "shard-1"}
    writes = {f"key-{i}": i for i in range(24)}

    async def load():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(load())

    # Growing the ring deploys a whole new replica group and migrates
    # ranges into it.
    dep.run_scenario(plane.add_shard("shard-2"))
    assert "shard-2" in dep.replication.groups
    new = dep.services["shard-2"]
    assert len(new.server_pids) == 2

    async def read_all():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read_all())
    # The migrated shard's backup holds the moved keys too (the ingest
    # was a replicated write through the group's primary).
    moved = {k for k in writes if plane.ring.route(k) == "shard-2"}
    if moved:
        group = dep.replication.group("shard-2")
        backup = next(p for p in group.members if p != group.primary)
        assert moved <= set(new.app(backup).data)
