"""The benchmark's three seeded workloads.

Each workload builds its own deployment from the seed, warms it up,
runs one measured phase on a fixed *virtual-time* schedule and then
checks the program's outputs.  Everything the workload does is a
function of the seed, so the virtual-time results (latencies, gaps,
message and step counts) repeat exactly from run to run; only the
wall-clock cost of the measured phase varies.

The workloads use the program only through its public API
(``repro.Deployment``, ``build_sharded_kv``, ``build_elastic_kv``,
``Deployment.adapt``, the stub marshaller ...).  Why each workload
exists, and which layers it loads, is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional

from repro import Deployment, LinkSpec, ServiceSpec
from repro.apps import KVStore, build_sharded_kv
from repro.core.microprotocols import ALL
from repro.placement import ElasticKV, build_elastic_kv
from repro.replication import active_replicas
from repro.stubs import MarshallingApp, marshal, unmarshal


class CheckFailed(Exception):
    """An output check failed: the run is wrong, not slow."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One seeded workload: ``setup`` (build, preload, warm-up), then
    ``run`` (the measured phase), then ``check``.

    While the measured phase runs, every finished call is recorded with
    :meth:`_done`: its virtual latency and whether it succeeded.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.dep: Optional[Deployment] = None
        self.latencies: List[float] = []
        #: Virtual completion times of the successful measured calls.
        self.completions: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.phase_start = 0.0
        self.phase_end = 0.0
        #: Per-layer figures this workload measures from outside (virtual
        #: time), by metric name.
        self.figures: Dict[str, float] = {}
        self.notes: List[str] = []
        self._measuring = False

    # -- the three phases -------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    def now(self) -> float:
        return self.dep.runtime.now()

    def _begin_phase(self) -> None:
        self._measuring = True
        self.phase_start = self.now()

    def _end_phase(self) -> None:
        self._measuring = False
        self.phase_end = self.now()

    def _done(self, since: float, ok: bool) -> None:
        """Record one finished call issued (or due) at virtual ``since``."""
        if not self._measuring:
            return
        now = self.now()
        self.attempted += 1
        if ok:
            self.latencies.append(now - since)
            self.completions.append(now)
        else:
            self.failed += 1

    def max_gap(self) -> float:
        """Longest virtual interval of the measured phase without a
        successful completion (seconds)."""
        edges = [self.phase_start] + sorted(self.completions) \
            + [self.phase_end]
        return max(b - a for a, b in zip(edges, edges[1:]))


# ----------------------------------------------------------------------
# kv-put: the per-call hot path, with marshalling
# ----------------------------------------------------------------------

class KvPut(Workload):
    """x17's shape with the stub marshaller on both sides.

    8 single-server shards, 16 lanes, each issuing one put every
    ``INTERVAL`` virtual seconds without waiting for replies (open
    loop).  Arguments are marshalled by the client and unmarshalled by
    :class:`~repro.stubs.MarshallingApp` on the server, whose reply (the
    previous value) is marshalled back.
    """

    name = "kv-put"
    SHARDS = 8
    LANES = 16
    INTERVAL = 0.0005           # virtual seconds between one lane's puts
    KEYS_PER_LANE = 64          # a key recurs every 32 ms of virtual time
    WARM_PUTS = 40              # per lane
    PUTS = 300                  # per lane, measured
    BLOB = "x" * 64
    LINK = LinkSpec(delay=0.001, jitter=0.0005)

    def setup(self) -> None:
        self.dep = dep = Deployment(seed=self.seed, default_link=self.LINK,
                                    keep_trace=False)
        self.kv = build_sharded_kv(
            dep, self.SHARDS, spec=ServiceSpec(bounded=30.0, acceptance=1),
            clients=self.LANES, seed=self.seed,
            app_factory=lambda: MarshallingApp(KVStore(keep_log=False)))
        self.router = self.kv.router
        self.lanes = dep.services[self.router.services[0]].client_pids
        #: key -> value of the last acknowledged put (a key recurs only
        #: every KEYS_PER_LANE puts of its lane, long after its last put
        #: was acknowledged, so acknowledgements arrive in issue order).
        self.model: Dict[str, Any] = {}
        self.lateness = 0.0
        self._counter = 0
        self._drive(self.WARM_PUTS)

    def run(self) -> None:
        self._begin_phase()
        self._drive(self.PUTS)
        self._end_phase()
        self.notes.append(
            f"open loop on a fixed virtual schedule: {self.LANES} lanes x "
            f"1 put / {self.INTERVAL * 1000:g} ms; the generator is never "
            f"late in virtual time (max lateness "
            f"{self.lateness * 1000:.6f} ms); latency counts from the due "
            f"time")

    def _drive(self, per_lane: int) -> None:
        dep = self.dep
        # Lanes are staggered over one interval so the arrival process
        # is uniform; each lane's keys are private to it.
        offsets = [self.INTERVAL * n / self.LANES
                   for n in range(self.LANES)]
        start = dep.runtime.now()

        async def one_put(pid: int, key: str, value: Any,
                          due: float) -> None:
            payload = marshal({"key": key, "value": value})
            result = await dep.call(pid, self.router.route(key), "put",
                                    payload,
                                    view_epoch=self.router.view_epoch)
            # The reply (the previous value) is not checked: without
            # Unique Execution a retransmitted put may execute twice, and
            # the reply of the second execution may arrive first.
            if result.ok:
                unmarshal(result.args)
                self.model[key] = value
            self._done(due, result.ok)

        async def lane(pid: int, lane_no: int) -> None:
            tasks = []
            for i in range(per_lane):
                due = start + offsets[lane_no] + i * self.INTERVAL
                await dep.runtime.sleep(max(0.0, due - dep.runtime.now()))
                self.lateness = max(self.lateness, dep.runtime.now() - due)
                key = f"w{lane_no}-k{i % self.KEYS_PER_LANE}"
                value = {"n": self._counter, "blob": self.BLOB}
                self._counter += 1
                tasks.append(dep.spawn_client(
                    pid, one_put(pid, key, value, due)))
            for task in tasks:
                await dep.runtime.join(task)

        async def scenario() -> None:
            tasks = [dep.spawn_client(pid, lane(pid, n))
                     for n, pid in enumerate(self.lanes)]
            for task in tasks:
                await dep.runtime.join(task)

        dep.run_scenario(scenario())

    def check(self) -> None:
        # Virtual time: only float rounding can separate issue from due.
        _check(self.lateness < 1e-9,
               f"kv-put: the generator ran {self.lateness * 1000:.3f} ms "
               f"late in virtual time")
        dep = self.dep
        pid = self.lanes[0]
        mismatched: List[str] = []

        async def audit() -> None:
            # Audit reads are not measured calls.
            for key, value in sorted(self.model.items()):
                result = await dep.call(
                    pid, self.router.route(key), "get",
                    marshal({"key": key}),
                    view_epoch=self.router.view_epoch)
                if not result.ok or unmarshal(result.args) != value:
                    mismatched.append(key)

        dep.run_scenario(audit())
        _check(not mismatched,
               f"kv-put: {len(mismatched)} acknowledged puts did not read "
               f"back (first: {mismatched[:3]})")


# ----------------------------------------------------------------------
# rsm-total: micro-protocols, ordering and retransmission
# ----------------------------------------------------------------------

class RsmTotal(Workload):
    """A 5-replica state machine under loss, switched live.

    Total Order + Unique Execution + Reliable Communication with
    acceptance ALL; 2 closed-loop clients, each doing 50/50 gets and
    puts on a key range of its own.  At 1/3 and 2/3 of the measured
    phase the service switches Total -> FIFO -> Total through
    :meth:`Deployment.adapt`.
    """

    name = "rsm-total"
    SERVERS = 5
    CLIENTS = 2
    KEYS_PER_CLIENT = 16
    WARM_S = 0.3                # virtual seconds of warm-up load
    RUN_S = 14.0                # virtual seconds measured
    LINK = LinkSpec(delay=0.002, jitter=0.001, loss=0.02)
    SPEC = ServiceSpec(reliable=True, unique=True, ordering="total",
                       acceptance=ALL)

    def setup(self) -> None:
        self.dep = dep = Deployment(seed=self.seed, default_link=self.LINK,
                                    keep_trace=False)
        self.svc = dep.add_service(
            "rsm", self.SPEC, lambda: KVStore(keep_log=False),
            servers=self.SERVERS, clients=self.CLIENTS)
        #: key -> last value written (both clients' models together).
        self.model: Dict[str, Any] = {}
        self.bad_reads: List[str] = []
        self.tags = 0
        self.switches: List[Any] = []
        self.rngs = [random.Random(f"{self.seed}-{lane}")
                     for lane in range(self.CLIENTS)]
        self._drive(self.WARM_S, switch=False)

    def run(self) -> None:
        self._begin_phase()
        self._drive(self.RUN_S, switch=True)
        self._end_phase()
        took = [seconds * 1000 for seconds, _ in self.switches]
        self.figures["adapt.switch_ms"] = sum(took) / len(took)
        self.notes.append(
            "adapt.switch_ms = mean virtual time of dep.adapt() over "
            + ", ".join(f"{ms:.3f}" for ms in took) + " ms")

    def _drive(self, duration: float, *, switch: bool) -> None:
        dep = self.dep
        deadline = dep.runtime.now() + duration

        async def client(pid: int, lane: int) -> None:
            rng = self.rngs[lane]
            while dep.runtime.now() < deadline:
                key = f"c{lane}-k{rng.randrange(self.KEYS_PER_CLIENT)}"
                self.tags += 1
                begin = dep.runtime.now()
                if rng.random() < 0.5:
                    value = self.tags
                    result = await dep.call(
                        pid, "rsm", "put",
                        {"key": key, "value": value, "tag": self.tags})
                    if result.ok:
                        self.model[key] = value
                else:
                    result = await dep.call(
                        pid, "rsm", "get", {"key": key, "tag": self.tags})
                    if result.ok and result.args != self.model.get(key):
                        self.bad_reads.append(key)
                self._done(begin, result.ok)

        async def switcher() -> None:
            start = dep.runtime.now()
            for fraction, ordering in ((1 / 3, "fifo"), (2 / 3, "total")):
                await dep.runtime.sleep(
                    start + duration * fraction - dep.runtime.now())
                began = dep.runtime.now()
                report = await dep.adapt(
                    "rsm", self.SPEC.with_(ordering=ordering),
                    reason=f"perfbench:{ordering}")
                self.switches.append((dep.runtime.now() - began, report))

        async def scenario() -> None:
            tasks = [dep.spawn_client(pid, client(pid, lane))
                     for lane, pid in enumerate(self.svc.client_pids)]
            if switch:
                await switcher()
            for task in tasks:
                await dep.runtime.join(task)

        dep.run_scenario(scenario())

    def check(self) -> None:
        _check(not self.bad_reads,
               f"rsm-total: {len(self.bad_reads)} gets returned a value "
               f"other than the client's last write "
               f"(first: {self.bad_reads[:3]})")
        _check(len(self.switches) == 2,
               "rsm-total: the two live switches did not both commit")
        self.dep.settle(1.0)    # let the last acks and orders land
        states = {pid: self.svc.app(pid).data
                  for pid in self.svc.server_pids}
        for pid, data in states.items():
            _check(data == self.model,
                   f"rsm-total: replica {pid} holds {len(data)} keys that "
                   f"differ from the clients' model")
        for pid in self.svc.server_pids:
            counts = self.svc.dispatcher(pid).executions_by_tag
            _check(len(counts) == self.tags,
                   f"rsm-total: replica {pid} executed {len(counts)} of "
                   f"{self.tags} calls")
            again = [tag for tag, n in counts.items() if n != 1]
            _check(not again,
                   f"rsm-total: replica {pid} executed {len(again)} calls "
                   f"more than once (first tags: {again[:3]})")


# ----------------------------------------------------------------------
# elastic-churn: the control planes under load
# ----------------------------------------------------------------------

class ElasticChurn(Workload):
    """Replicated elastic KV through migrations and replica crashes.

    4 shards, each an active group of 2 replicas, heartbeat membership
    and ``auto_rebind``; 3 closed-loop lanes at 3 gets : 1 put on key
    ranges of their own.  The measured phase grows and shrinks the ring
    twice (``add_shard``/``remove_shard`` of ``shard-4``), and one
    replica crashes and recovers three times.

    Until the crash is detected, reads narrowed to the dead replica
    hang; once every lane hangs, service stops.  How soon that happens
    varies with the seed, so one crash gives a very different longest
    gap from seed to seed; the longest of three is steadier.  The
    measured phase starts on the heartbeat grid and every crash lands
    half an interval after a beat, so detection does not vary with
    how long the seed's preload happened to take.
    """

    name = "elastic-churn"
    SHARDS = 4
    LANES = 3
    KEYS_PER_LANE = 64
    WARM_S = 0.3
    RUN_S = 4.0
    LINK = LinkSpec(delay=0.001, jitter=0.0005)
    HEARTBEAT = 0.05
    #: (virtual seconds into the measured phase, action)
    SCHEDULE = ((0.30, "add"), (0.70, "remove"), (1.125, "crash"),
                (1.45, "recover"), (1.825, "crash"), (2.15, "recover"),
                (2.50, "add"), (2.90, "remove"), (3.225, "crash"),
                (3.55, "recover"))

    def setup(self) -> None:
        self.dep = dep = Deployment(seed=self.seed, default_link=self.LINK,
                                    membership="heartbeat",
                                    heartbeat_interval=self.HEARTBEAT,
                                    keep_trace=False)
        self.plane, _ = build_elastic_kv(
            dep, self.SHARDS, clients=self.LANES, seed=self.seed,
            replication=active_replicas(2))
        dep.auto_rebind(plane=self.plane)
        self.lanes = dep.services["shard-0"].client_pids
        self.victim = dep.services["shard-1"].server_pids[1]
        self.model: Dict[str, Any] = {}
        self.migrations: List[float] = []
        #: Virtual times of each crash and of its first suspicion.
        self.crashes: List[float] = []
        self.detections: List[float] = []
        self.suspicions = 0
        dep.watch_membership(self._on_membership)
        self._writes = 0
        self.rngs = [random.Random(f"{self.seed}-{lane}")
                     for lane in range(self.LANES)]

        async def preload() -> None:
            kv = ElasticKV(self.plane, self.lanes[0])
            for lane in range(self.LANES):
                for k in range(self.KEYS_PER_LANE):
                    key = f"l{lane}-k{k}"
                    result = await kv.put(key, 0)
                    _check(result.ok, f"elastic-churn: preload of {key} "
                                      f"failed with {result.status}")
                    self.model[key] = 0

        dep.run_scenario(preload())
        self._drive(self.WARM_S, churn=False)

    def _on_membership(self, pid: int, alive: bool) -> None:
        if alive or not self._measuring:
            return
        self.suspicions += 1
        if pid == self.victim and len(self.detections) < len(self.crashes):
            self.detections.append(self.now() - self.crashes[-1])

    def run(self) -> None:
        now = self.now()
        self.dep.settle(math.ceil(now / self.HEARTBEAT) * self.HEARTBEAT
                        - now)
        self._begin_phase()
        self._drive(self.RUN_S, churn=True)
        self._end_phase()
        took = [seconds * 1000 for seconds in self.migrations]
        self.figures["placement.migration_ms"] = sum(took) / len(took)
        self.figures["membership.suspicions"] = self.suspicions
        self.notes.append(
            "placement.migration_ms = mean virtual time of add_shard/"
            "remove_shard over " + ", ".join(f"{ms:.3f}" for ms in took)
            + " ms")
        if self.detections:
            self.figures["membership.detect_ms"] = \
                sum(self.detections) / len(self.detections) * 1000

    def _drive(self, duration: float, *, churn: bool) -> None:
        dep = self.dep
        deadline = dep.runtime.now() + duration

        async def lane(pid: int, lane_no: int) -> None:
            kv = ElasticKV(self.plane, pid)
            rng = self.rngs[lane_no]
            while dep.runtime.now() < deadline:
                begin = dep.runtime.now()
                if rng.random() < 0.25:
                    # Writes stay in the lane's own range, so the last
                    # acknowledged value of every key is well defined.
                    key = f"l{lane_no}-k{rng.randrange(self.KEYS_PER_LANE)}"
                    self._writes += 1
                    value = self._writes
                    result = await kv.put(key, value)
                    if result.ok:
                        self.model[key] = value
                else:
                    # Reads range over every lane's keys, so every lane
                    # reads from every shard.
                    key = f"l{rng.randrange(self.LANES)}-k" \
                          f"{rng.randrange(self.KEYS_PER_LANE)}"
                    result = await kv.get(key)
                self._done(begin, result.ok)

        async def churner() -> None:
            start = dep.runtime.now()
            for offset, action in self.SCHEDULE:
                await dep.runtime.sleep(
                    max(0.0, start + offset - dep.runtime.now()))
                began = dep.runtime.now()
                if action == "add":
                    await self.plane.add_shard("shard-4")
                elif action == "remove":
                    await self.plane.remove_shard("shard-4")
                elif action == "crash":
                    self.crashes.append(began)
                    dep.crash(self.victim)
                    continue
                else:
                    dep.recover(self.victim)
                    continue
                self.migrations.append(dep.runtime.now() - began)

        async def scenario() -> None:
            tasks = [dep.spawn_client(pid, lane(pid, n))
                     for n, pid in enumerate(self.lanes)]
            if churn:
                await churner()
            for task in tasks:
                await dep.runtime.join(task)

        dep.run_scenario(scenario())

    def check(self) -> None:
        _check(len(self.detections) == len(self.crashes) == 3,
               f"elastic-churn: {len(self.detections)} of "
               f"{len(self.crashes)} crashes of {self.victim} were "
               f"detected")
        _check(len(self.migrations) == 4,
               f"elastic-churn: {len(self.migrations)} of 4 migrations ran")
        _check(self.plane.shards == [f"shard-{i}"
                                     for i in range(self.SHARDS)],
               f"elastic-churn: the ring ended as {self.plane.shards}")
        dep = self.dep
        dep.settle(0.5)
        lost: List[str] = []

        async def audit() -> None:
            kv = ElasticKV(self.plane, self.lanes[0])
            for key, value in sorted(self.model.items()):
                result = await kv.get(key)
                if not result.ok or result.args != value:
                    lost.append(key)

        dep.run_scenario(audit())
        _check(not lost,
               f"elastic-churn: {len(lost)} acknowledged writes were lost "
               f"(first: {lost[:3]})")


WORKLOADS = {cls.name: cls for cls in (KvPut, RsmTotal, ElasticChurn)}
