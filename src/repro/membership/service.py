"""Membership services that feed gRPC's ``MEMBERSHIP_CHANGE`` event.

Two implementations of the membership composite the paper assumes:

* :class:`OracleMembership` — a perfect detector wired straight into the
  fabric's crash/recover notifications, optionally with a fixed detection
  delay.  Used by experiments that must separate the semantics under test
  from detector inaccuracy.
* :class:`HeartbeatMembership` — the realistic service: one
  :class:`~repro.membership.detector.HeartbeatDetector` per node, with
  suspicions local to each node (different sites may briefly disagree, as
  in any real asynchronous system).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.core.grpc import GroupRPC
from repro.core.messages import MemChange
from repro.membership.detector import HeartbeatDetector
from repro.net.fabric import NetworkFabric
from repro.net.message import ProcessId

__all__ = ["OracleMembership", "HeartbeatMembership"]


class OracleMembership:
    """Perfect failure detection from the fabric's own lifecycle events.

    ``delay`` models detection latency: changes are announced to the
    composites ``delay`` seconds after they happen (0 = instantaneous).
    """

    def __init__(self, fabric: NetworkFabric, *, delay: float = 0.0):
        self.fabric = fabric
        self.delay = delay
        self._composites: List[GroupRPC] = []
        fabric.watch_membership(self._on_change)

    def connect(self, grpc: GroupRPC,
                initial: Optional[Iterable[ProcessId]] = None) -> None:
        """Give ``grpc`` membership knowledge and future change events."""
        grpc.set_members(initial if initial is not None
                         else self.fabric.alive_pids())
        self._composites.append(grpc)

    def _on_change(self, pid: ProcessId, alive: bool) -> None:
        change = MemChange.RECOVERY if alive else MemChange.FAILURE

        def announce() -> None:
            for grpc in self._composites:
                if grpc.node.up:
                    grpc.membership_change(pid, change)

        if self.delay > 0:
            self.fabric.runtime.call_later(self.delay, announce)
        else:
            announce()


class HeartbeatMembership:
    """Realistic per-node membership built on heartbeat detectors.

    One detector per *node*, shared by every composite the node hosts: a
    site's liveness is service-independent, so a node carrying several
    differently-configured composites (a multi-service
    :class:`~repro.core.deployment.Deployment`) sends one heartbeat
    stream and fans each suspicion out to all of its composites.
    """

    def __init__(self, *, interval: float = 0.05, suspect_after: int = 3):
        self.interval = interval
        self.suspect_after = suspect_after
        self.detectors: Dict[ProcessId, HeartbeatDetector] = {}
        self._started: set = set()
        #: Deployment-level subscribers: ``watcher(pid, alive)``.
        self._watchers: List[Callable[[ProcessId, bool], None]] = []
        #: Pids some node currently suspects (the deduplication state
        #: behind :meth:`watch`: N observers, one callback per change).
        self._down: Set[ProcessId] = set()
        #: Nodes whose detector already feeds :meth:`_record_change`.
        self._recorded: Set[ProcessId] = set()

    def attach(self, grpc: GroupRPC,
               peers: Iterable[ProcessId]) -> HeartbeatDetector:
        """Install a detector on ``grpc``'s node, attached to the node's
        dispatch table.

        If the node already carries a detector (another composite on the
        same node attached first), it is reused: ``grpc`` just subscribes
        to the existing suspicion stream.  The detector's suspicions
        update this node's view only; call :meth:`start_all` once every
        node is attached.
        """
        node = grpc.node
        detector = self.detectors.get(node.pid)
        if detector is None:
            detector = HeartbeatDetector(node, peers,
                                         interval=self.interval,
                                         suspect_after=self.suspect_after)
            detector.attach()
            self.detectors[node.pid] = detector
            if self._watchers:
                self._ensure_recording()
        grpc.set_members(set(peers) | {node.pid})
        detector.listeners.append(
            lambda pid, change: grpc.membership_change(pid, change))
        return detector

    def start_all(self) -> None:
        """Start every not-yet-started detector (idempotent, so services
        added to a live deployment can call it again)."""
        for pid, detector in self.detectors.items():
            if pid not in self._started and detector.node.up:
                detector.start()
                self._started.add(pid)

    # ------------------------------------------------------------------
    # Deployment-level subscription (reconfiguration drivers)
    # ------------------------------------------------------------------

    def watch(self, watcher: Callable[[ProcessId, bool], None]) -> None:
        """Subscribe to the union of every node's suspicion stream.

        Per-node detectors may disagree transiently; a deployment-level
        reconfiguration driver wants *one* notification per state
        change, so the first node to suspect a peer fires
        ``watcher(pid, False)`` and the first heartbeat-witnessed
        recovery fires ``watcher(pid, True)``; echoes from other
        observers are swallowed.

        The recording listener is installed lazily, on first
        subscription, so deployments without a reconfiguration driver
        pay nothing (and see no extra per-detector listeners).
        """
        self._watchers.append(watcher)
        self._ensure_recording()

    def unwatch(self, watcher: Callable[[ProcessId, bool], None]) -> None:
        """Detach a :meth:`watch` subscriber (no-op if never attached).

        Closing a reconfiguration driver must stop its callbacks, or a
        long-lived deployment leaks one dead listener per driver
        lifecycle — and a closed driver would keep reacting to
        suspicions.
        """
        try:
            self._watchers.remove(watcher)
        except ValueError:
            pass

    def _ensure_recording(self) -> None:
        # One service-level listener per detector (not per composite):
        # feeds the deduplicated watch() stream.
        for pid, detector in self.detectors.items():
            if pid not in self._recorded:
                detector.listeners.append(self._record_change)
                self._recorded.add(pid)

    def _record_change(self, pid: ProcessId, change: MemChange) -> None:
        if change is MemChange.FAILURE:
            if pid in self._down:
                return
            self._down.add(pid)
            alive = False
        else:
            if pid not in self._down:
                return
            self._down.discard(pid)
            alive = True
        for watcher in list(self._watchers):
            watcher(pid, alive)
