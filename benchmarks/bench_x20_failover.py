"""X20 — coordinator failover: killing the migration driver mid-flight.

The replicated placement-view plane claims that a migration survives
its coordinator: the plan and warm snapshots are persisted on every
coordinator candidate, so a successor (largest live candidate pid)
either resumes from the last persisted phase or rolls the reshape back
— with zero acknowledged-call loss and no stale-epoch mis-routes.

This benchmark kills the coordinator at *each* of the four migration
phases of a 4->5 grow under a closed-loop read/write workload:

* **snapshot** / **transfer** — plan phase ``warm``: nothing
  irreversible has happened, so the successor rolls back (destination
  scrub, ``view-rollback`` tape); the ring stays at 4 shards and the
  epoch does not advance;
* **catch-up** / **cutover** — the successor resumes from the persisted
  plan (``coord-takeover`` tape) and completes the migration: 5 shards,
  epoch advanced, ``view-commit`` tape.

Every phase's run is executed **twice** and must produce an identical
result row — the determinism the whole simulation stands on, now
through a crash + takeover.
"""

import os

from _common import (attach, percentiles, run_once, save_bench_json,
                     save_result)

from repro import Deployment, LinkSpec, build_elastic_kv
from repro.bench import banner, render_table
from repro.placement import ElasticKV

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

LINK = LinkSpec(delay=0.001, jitter=0.0005)
N_KEYS = 40 if TINY else 120
KEYS = [f"key-{i}" for i in range(N_KEYS)]

PHASES = ("snapshot", "transfer", "catchup", "cutover")
#: Phases whose plan is still ``warm`` when the crash lands: the
#: successor rolls back instead of resuming.
ROLLBACK_PHASES = {"snapshot", "transfer"}

#: Flight-recorder tapes that narrate the failover.
TAPES = ("view-propose", "coord-takeover", "view-commit",
         "view-rollback")


def kill_at(phase):
    """One full run: grow 4->5 under load, crash the coordinator at
    ``phase``, verify the successor's outcome and every acked call."""
    dep = Deployment(seed=20, default_link=LINK, keep_trace=False,
                     observatory=True)
    plane, kv = build_elastic_kv(dep, 4, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    # The workload drives through a *different* candidate, so killing
    # the coordinator kills neither the workload nor the supervisor.
    worker = ElasticKV(plane, [p for p in plane.coordinators
                               if p != victim][0])
    values = {}

    async def preload():
        for i, key in enumerate(KEYS):
            values[key] = i
            assert (await worker.put(key, i)).ok

    dep.run_scenario(preload())

    armed = {"fired": False}

    async def killer():
        dep.crash(victim)

    def hook(p):
        if p == phase and not armed["fired"]:
            armed["fired"] = True
            dep.runtime.spawn(killer(), name="coordinator-killer",
                              daemon=True)

    plane.phase_hook = hook

    failures = []
    stalls = []
    done = {"workload": False}

    async def workload():
        i = 0
        while not done["workload"]:
            key = KEYS[i % len(KEYS)]
            start = dep.runtime.now()
            if i % 3 == 2:
                value = values[key] + 1000
                result = await worker.put(key, value)
                if result.ok:
                    values[key] = value      # acknowledged: must survive
                else:
                    failures.append((key, "put", result.status))
            else:
                result = await worker.get(key)
                if not (result.ok and result.args == values[key]):
                    failures.append((key, "get", result.status))
            stalls.append(dep.runtime.now() - start)
            i += 1
            await dep.runtime.sleep(0.002)

    async def scenario():
        work = dep.runtime.spawn(workload(), name="workload")
        await plane.add_shard()
        done["workload"] = True
        await dep.runtime.join(work)
        # Every key must still read back its last acknowledged value
        # through the (old or new) ring.
        for key in KEYS:
            result = await worker.get(key)
            if not (result.ok and result.args == values[key]):
                failures.append((key, "audit", result.status))

    begin = dep.runtime.now()
    dep.run_scenario(scenario(), extra_time=1.0)
    elapsed = dep.runtime.now() - begin
    tapes = [record.kind for _, record in dep.flight.entries()
             if record.kind in TAPES]
    row = {
        "phase": phase,
        "outcome": "rollback" if phase in ROLLBACK_PHASES else "resume",
        "shards": len(plane.ring),
        "epoch": plane.epoch,
        "successor": plane.coordinator,
        "ops": len(stalls),
        "failures": len(failures),
        "acked_lost": sum(1 for f in failures if f[1] == "audit"),
        "takeovers": int(dep.metrics.value("placement.view.takeovers")),
        "stale_bounces": int(
            dep.metrics.value("placement.view.stale_bounces")),
        "parked": int(dep.metrics.value("placement.parked_calls")),
        "tapes": tapes,
        "worst_stall_ms": round(max(stalls) * 1000, 3),
        "latencies": list(stalls),
        "elapsed": elapsed,
    }
    dep.shutdown()
    return row


def run_all():
    rows = []
    for phase in PHASES:
        first = kill_at(phase)
        second = kill_at(phase)
        stable_a = {k: v for k, v in first.items()
                    if k not in ("latencies", "elapsed")}
        stable_b = {k: v for k, v in second.items()
                    if k not in ("latencies", "elapsed")}
        assert stable_a == stable_b, (
            f"phase {phase!r} not deterministic on reseed:\n"
            f"{stable_a}\n{stable_b}")
        assert first["latencies"] == second["latencies"], phase
        rows.append(first)
    return rows


def test_x20_failover(benchmark):
    rows = run_once(benchmark, run_all)

    table = render_table(
        ["killed at", "outcome", "shards", "epoch", "ops", "failures",
         "takeovers", "bounces", "worst stall"],
        [[r["phase"], r["outcome"], r["shards"], r["epoch"], r["ops"],
          r["failures"], r["takeovers"], r["stale_bounces"],
          f"{r['worst_stall_ms']:.1f}ms"] for r in rows])
    save_result("x20_failover", "\n".join([
        banner("X20 — migration coordinator failover",
               f"{N_KEYS} keys, grow 4->5 under closed-loop load, "
               f"coordinator killed at each phase, successor resumes "
               f"or rolls back (two runs per phase, identical)"),
        table]))
    attach(benchmark, {f"{r['phase']}_outcome": r["outcome"]
                       for r in rows})
    save_bench_json("x20_failover", {
        "phases": [{
            "phase": r["phase"],
            "outcome": r["outcome"],
            "shards": r["shards"],
            "epoch": r["epoch"],
            "successor": r["successor"],
            "ops": r["ops"],
            "failures": r["failures"],
            "takeovers": r["takeovers"],
            "stale_bounces": r["stale_bounces"],
            "parked": r["parked"],
            "tapes": r["tapes"],
            "worst_stall_ms": r["worst_stall_ms"],
            **percentiles(r["latencies"]),
        } for r in rows]}, tiny=TINY)

    for r in rows:
        # Zero acknowledged-call loss, zero workload failures, and no
        # call was ever dispatched against a stale routing table.
        assert r["failures"] == 0, r
        assert r["acked_lost"] == 0, r
        assert r["stale_bounces"] == 0, r
        # Exactly one takeover per run, narrated on the flight tape.
        assert r["takeovers"] == 1, r
        assert "view-propose" in r["tapes"], r
        assert "coord-takeover" in r["tapes"], r
        if r["outcome"] == "rollback":
            assert r["shards"] == 4 and r["epoch"] == 0, r
            assert "view-rollback" in r["tapes"], r
        else:
            assert r["shards"] == 5 and r["epoch"] == 1, r
            assert "view-commit" in r["tapes"], r
