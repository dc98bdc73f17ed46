"""The replicated placement metadata plane: views, epochs, failover.

Covers :class:`~repro.placement.view.PlacementView` blob
round-tripping and ring rebuilding, epoch monotonicity, stale-epoch call fencing
through a pinned :class:`~repro.apps.sharding.RingRouter`, the reply
cache's epoch stamping, the driver-lifecycle registry, and the
coordinator-failover matrix: a coordinator killed at each migration
phase is either rolled back or resumed by an elected successor with
every acknowledged write intact — including when the migration's
supervising caller dies *with* the coordinator and recovery must start
from the membership stream alone.
"""

import pytest

from repro import Deployment, HashRing, build_elastic_kv
from repro.apps.sharding import RingRouter, ShardedKV
from repro.core.messages import Status
from repro.core.replycache import ReplyCache
from repro.errors import ViewError
from repro.placement import PlacementView, ViewManager

KEYS = [f"key-{i}" for i in range(60)]


def _view(epoch=0, shards=("a", "b"), **kw):
    ring = HashRing(shards, vnodes=16, seed=3)
    return PlacementView.make(epoch=epoch, ring=ring, **kw)


# ---------------------------------------------------------------------------
# Views: serialisation and routing
# ---------------------------------------------------------------------------


def test_blob_roundtrip_and_malformed_blob():
    view = _view(epoch=3, shards=("a", "b"),
                 bindings={"a": (1, 2)}, moves=[("a", "b")], dead=["x"])
    assert PlacementView.from_blob(view.to_blob()) == view
    with pytest.raises(ViewError):
        PlacementView.from_blob({"shards": ["a"]})       # no epoch
    with pytest.raises(ViewError):
        PlacementView.from_blob({"epoch": "not-a-number",
                                 "shards": [], "vnodes": 8, "seed": 0})


def test_view_rebuilds_the_exact_ring():
    ring = HashRing(["s0", "s1", "s2"], vnodes=32, seed=11)
    view = PlacementView.make(epoch=0, ring=ring)
    rebuilt = view.ring()
    assert [ring.route(k) for k in KEYS] == \
           [rebuilt.route(k) for k in KEYS]
    assert view.route(KEYS[0]) == ring.route(KEYS[0])


# ---------------------------------------------------------------------------
# ViewManager: installation, monotonicity, persistence
# ---------------------------------------------------------------------------


def test_manager_installs_once_and_epochs_only_move_forward():
    dep = Deployment(seed=31)
    plane, kv = build_elastic_kv(dep, 2, clients=2)
    views = dep.views
    assert ViewManager.ensure(dep) is views          # idempotent
    with pytest.raises(ViewError):
        ViewManager(dep)                             # double-install
    views.commit(views.current.with_(epoch=2))
    with pytest.raises(ViewError):
        views.sync(views.current.with_(epoch=1))
    with pytest.raises(ViewError):
        views.commit(views.current.with_(epoch=1))
    views.close()
    assert dep.views is None
    assert views not in dep.drivers


# ---------------------------------------------------------------------------
# Stale-epoch fencing and the reply cache
# ---------------------------------------------------------------------------


def test_stale_epoch_call_bounces_and_router_repins():
    dep = Deployment(seed=33)
    plane, kv = build_elastic_kv(dep, 3, clients=2)
    router = RingRouter(plane.shards, metrics=dep.metrics)
    router.pin(dep.views)
    assert router.view_epoch == 0
    skv = ShardedKV(dep, plane.coordinator, router)

    async def scenario():
        for i, key in enumerate(KEYS):
            assert (await skv.put(key, i)).ok
        await plane.add_shard()          # epoch 0 -> 1 under the router
        assert router.view_epoch == 0    # still pinned to the old view
        for i, key in enumerate(KEYS):
            result = await skv.get(key)
            assert result.ok and result.args == i

    dep.run_scenario(scenario())
    # The first post-migration call bounced (REDIRECT, nothing
    # dispatched), the router re-pinned, and every later call sailed.
    assert router.view_epoch == 1
    assert dep.metrics.value("placement.view.stale_bounces") == 1
    bounce = dep.views.redirect_result()
    assert bounce.status is Status.REDIRECT and not bounce.ok
    assert bounce.args == {"epoch": 1}


def test_reply_cache_records_the_completion_epoch():
    cache = ReplyCache(capacity=2)
    from repro.core.messages import CallResult
    cache.put(7, 1, CallResult(id=1, status=Status.OK, args=1), epoch=0)
    cache.put(7, 2, CallResult(id=2, status=Status.OK, args=2), epoch=3)
    assert cache.epoch_of(7, 1) == 0
    assert cache.epoch_of(7, 2) == 3
    cache.put(7, 3, CallResult(id=3, status=Status.OK, args=3), epoch=4)
    # LRU eviction drops the epoch record with the entry.
    assert cache.epoch_of(7, 1) is None
    assert cache.epoch_of(7, 3) == 4


def test_deployment_stamps_cache_entries_with_the_view_epoch():
    dep = Deployment(seed=34)
    plane, kv = build_elastic_kv(dep, 2, clients=2)

    async def scenario():
        assert (await kv.put("k", 1)).ok
        await plane.add_shard()
        assert (await kv.put("k", 2)).ok

    dep.run_scenario(scenario())
    epochs = set()
    for cache in dep.reply_caches.values():
        epochs.update(cache._epochs.values())
    assert {0, 1} <= epochs


# ---------------------------------------------------------------------------
# Driver lifecycle registry
# ---------------------------------------------------------------------------


def test_double_auto_rebind_replaces_instead_of_stacking():
    dep = Deployment(seed=35)
    plane, kv = build_elastic_kv(dep, 2, clients=2)
    first = dep.auto_rebind(plane=plane)
    second = dep.auto_rebind(plane=plane)
    rebinders = [d for d in dep.drivers if type(d) is type(second)]
    assert rebinders == [second]
    assert first not in dep.drivers
    dep.shutdown()
    assert dep.drivers == []


# ---------------------------------------------------------------------------
# Coordinator failover
# ---------------------------------------------------------------------------


def _preload(dep, kv, values):
    async def go():
        for i, key in enumerate(KEYS):
            values[key] = i
            assert (await kv.put(key, i)).ok
    dep.run_scenario(go())


def _arm_crash(dep, plane, victim, phase):
    """Kill ``victim`` from a separate daemon task the first time the
    migration reaches ``phase`` (a task cannot cancel itself)."""
    fired = []

    async def killer():
        dep.crash(victim)

    def hook(p):
        if p == phase and not fired:
            fired.append(p)
            dep.runtime.spawn(killer(), name="killer", daemon=True)

    plane.phase_hook = hook
    return fired


@pytest.mark.parametrize("phase,outcome", [
    ("snapshot", "rollback"),
    ("transfer", "rollback"),
    ("catchup", "resume"),
    ("cutover", "resume"),
])
def test_coordinator_crash_at_each_phase(phase, outcome):
    dep = Deployment(seed=36, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    _arm_crash(dep, plane, victim, phase)
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def scenario():
        await plane.add_shard()
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.coordinator != victim
    assert dep.metrics.value("placement.view.takeovers") == 1
    tapes = [record.kind for _, record in dep.flight.entries()
             if record.kind in ("view-propose", "coord-takeover",
                                "view-commit", "view-rollback")]
    assert tapes[0] == "view-propose"
    assert "coord-takeover" in tapes
    if outcome == "rollback":
        assert plane.epoch == 0 and len(plane.ring) == 3
        assert tapes[-1] == "view-rollback"
        assert dep.views.load_plan() is None
    else:
        assert plane.epoch == 1 and len(plane.ring) == 4
        assert tapes[-1] == "view-commit"
        assert dep.views.load_plan() is None


def test_drain_of_dead_shard_resumes_through_coordinator_crash():
    dep = Deployment(seed=37, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    for pid in dep.services["shard-1"].server_pids:
        dep.crash(pid)
    # A drain parks early, so a warm-phase coordinator crash must
    # *resume* (the dead source cannot serve its keys regardless).
    _arm_crash(dep, plane, victim, "snapshot")
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def scenario():
        await plane.drain_dead_shard("shard-1")
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.epoch == 1
    assert "shard-1" not in plane.ring
    assert dep.metrics.value("placement.view.takeovers") == 1


def test_stranded_plan_recovered_from_membership_stream():
    """The supervising caller runs *on the coordinator's node* and dies
    with it: nobody is left awaiting the migration, so recovery must
    start from the membership stream
    (:meth:`PlacementPlane.on_coordinator_suspected`)."""
    dep = Deployment(seed=38, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    _arm_crash(dep, plane, victim, "catchup")
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def grow():
        await plane.add_shard()

    async def scenario():
        runtime = dep.runtime
        dep.spawn_client(victim, grow(), name="grow-on-coordinator")
        deadline = runtime.now() + 20.0
        while plane.epoch == 0 and runtime.now() < deadline:
            await runtime.sleep(0.05)
        assert plane.epoch == 1, "stranded migration was never recovered"
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert len(plane.ring) == 4
    assert plane.coordinator != victim
    assert dep.views.load_plan() is None


def test_idle_coordinator_crash_is_a_quiet_takeover():
    dep = Deployment(seed=39, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    values = {}
    _preload(dep, kv, values)
    dep.crash(victim)                    # no migration in flight

    async def scenario():
        await dep.runtime.sleep(0.5)     # let recovery tasks settle
        assert plane.epoch == 0          # nothing to recover
        await plane.add_shard()          # next reshape just re-elects

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.epoch == 1
    assert plane.coordinator != victim
    assert dep.metrics.value("placement.view.rollbacks") == 0
