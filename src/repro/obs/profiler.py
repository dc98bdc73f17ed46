"""The kernel profiler: where do the cycles go?

"Run cProfile by hand" does not compose with the simulation: one kernel
step interleaves many tasks, and the unit an operator asks about is the
task (a heartbeat sender, a migration driver, an arrival), not the
Python frame.  :class:`KernelProfiler` therefore measures wall clock at
two seams the system already has:

* **kernel steps** — a sampling hook in :meth:`repro.sim.kernel.Kernel.
  _step`: every ``sample_every``-th step captures ``perf_counter`` and
  the running task's name, and the wall-clock delta between consecutive
  samples is attributed to the earlier sample's task (start-to-start
  attribution, the classic sampling-profiler scheme);
* **the stub marshaller** — :func:`repro.stubs.marshal.install_profiler`
  routes per-call byte counts and wall-clock into :meth:`on_marshal` /
  :meth:`on_unmarshal`, since argument marshalling is the one real-CPU
  cost every call pays twice.

Virtual time per handler is not the profiler's job: with tracing on,
the recorder folds every handler's virtual-time duration into the
``handler.<owner>`` histograms.

Zero overhead when disabled: the kernel hook is ``kernel.profile_hook``
(``None`` by default — one ``is None`` test per step) and the
marshaller checks a module global once per call.
``tests/test_obs_overhead.py`` guards both.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["KernelProfiler", "StepSite"]


class StepSite:
    """Wall-clock accounting for one task name in the step sampler."""

    __slots__ = ("name", "samples", "wall")

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.wall = 0.0


class KernelProfiler:
    """Wall-clock profiler over sampled kernel steps and the
    marshaller.  One instance per deployment, owned by the observatory.
    """

    def __init__(self, *, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        # -- step sampler (wall clock) --
        self.steps_seen = 0
        self._pending: Optional[Tuple[str, float]] = None
        self._step_sites: Dict[str, StepSite] = {}
        # -- marshaller --
        self.marshal_calls = 0
        self.marshal_bytes = 0
        self.marshal_wall = 0.0
        self.unmarshal_calls = 0
        self.unmarshal_bytes = 0
        self.unmarshal_wall = 0.0

    # ------------------------------------------------------------------
    # Kernel step hook (wall clock, sampled)
    # ------------------------------------------------------------------

    def on_step(self, task: Any) -> None:
        """Installed as ``kernel.profile_hook``; called once per step."""
        self.steps_seen += 1
        if self.steps_seen % self.sample_every:
            return
        now = perf_counter()
        pending = self._pending
        if pending is not None:
            name, then = pending
            site = self._step_sites.get(name)
            if site is None:
                site = self._step_sites[name] = StepSite(name)
            site.samples += 1
            site.wall += now - then
        self._pending = (task.name, now)

    def step_sites(self) -> List[StepSite]:
        """Sampled tasks, most wall-clock first."""
        return sorted(self._step_sites.values(),
                      key=lambda s: (-s.wall, s.name))

    # ------------------------------------------------------------------
    # Marshaller hooks (wall clock, exact)
    # ------------------------------------------------------------------

    def on_marshal(self, nbytes: int, seconds: float) -> None:
        self.marshal_calls += 1
        self.marshal_bytes += nbytes
        self.marshal_wall += seconds

    def on_unmarshal(self, nbytes: int, seconds: float) -> None:
        self.unmarshal_calls += 1
        self.unmarshal_bytes += nbytes
        self.unmarshal_wall += seconds

    # ------------------------------------------------------------------
    # Publishing and reporting
    # ------------------------------------------------------------------

    def publish(self, metrics: Any) -> None:
        """Snapshot the profile into ``obs.profile.*`` gauges."""
        gauge = metrics.gauge
        gauge("obs.profile.steps").set(self.steps_seen)
        gauge("obs.profile.step_sites").set(len(self._step_sites))
        gauge("obs.profile.marshal.calls").set(self.marshal_calls)
        gauge("obs.profile.marshal.bytes").set(self.marshal_bytes)
        gauge("obs.profile.marshal.wall").set(self.marshal_wall)
        gauge("obs.profile.unmarshal.calls").set(self.unmarshal_calls)
        gauge("obs.profile.unmarshal.bytes").set(self.unmarshal_bytes)
        gauge("obs.profile.unmarshal.wall").set(self.unmarshal_wall)

    def report_lines(self, *, top: int = 8) -> List[str]:
        """The profiler section of the deployment health report."""
        lines = [f"kernel steps seen: {self.steps_seen} "
                 f"(sampling 1/{self.sample_every})"]
        steps = self.step_sites()
        if steps:
            lines.append("top tasks by sampled wall clock:")
            for site in steps[:top]:
                lines.append(
                    f"  {site.name:<46} samples={site.samples:<6} "
                    f"wall={site.wall * 1000:8.2f}ms")
        if self.marshal_calls or self.unmarshal_calls:
            lines.append(
                f"marshalling: {self.marshal_calls} encodes "
                f"({self.marshal_bytes} B, "
                f"{self.marshal_wall * 1000:.2f}ms), "
                f"{self.unmarshal_calls} decodes "
                f"({self.unmarshal_bytes} B, "
                f"{self.unmarshal_wall * 1000:.2f}ms)")
        return lines
