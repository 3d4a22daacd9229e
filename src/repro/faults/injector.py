"""Realizing a fault plan against one booted system.

The injector is deliberately thin: it owns *when* faults fire (seeded
arrival processes per fault) and delegates *what happens* to hooks the
machine already exposes —

* ``disk-stall`` → :meth:`repro.sim.devices.disk.Disk.add_service_time_modifier`,
* ``irq-storm`` → :meth:`repro.sim.interrupts.InterruptController.raise_spurious`,
* ``queue-pressure`` → :meth:`repro.winsys.messages.MessageQueue.post`
  (junk ``WM_USER`` traffic) plus the queue's finite ``capacity``,
* ``sched-jitter`` → :meth:`repro.winsys.scheduler.Scheduler.set_requeue_jitter`,
* ``memory-pressure`` → :meth:`repro.sim.cpu.CPU.steal` with TLB-flush/
  TLB-miss annotated :class:`~repro.sim.work.Work`.

No hook changes simulation semantics when unused, so a run with an
empty plan is bit-identical to a run with no injector at all.

Every random draw comes from a stream named by the *fault*, derived
from the machine's master seed via ``rngs.fork("faults:<plan>")`` —
see :mod:`repro.faults.plan` for the determinism contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..sim.timebase import ns_from_ms, ns_from_us
from ..sim.work import HwEvent, Work
from ..winsys.messages import WM, Message
from .plan import FaultPlan, FaultSpec

__all__ = ["FaultInjector"]

NS_PER_MS = ns_from_ms(1)


class FaultInjector:
    """Schedules one plan's faults onto one booted system.

    Create after :func:`repro.winsys.boot` and call :meth:`install`
    before running the workload.  ``counts`` tallies injections per
    fault name; :meth:`summary` adds the machine-side evidence (extra
    disk service time, spurious interrupt counts, dropped messages,
    TLB flushes) so experiments can archive what the plan actually did.
    """

    def __init__(self, system, plan: FaultPlan) -> None:
        self.system = system
        self.plan = plan
        self.sim = system.sim
        self.machine = system.machine
        self.kernel = system.kernel
        self._rngs = self.machine.rngs.fork(f"faults:{plan.name}")
        #: Injection events fired, per fault name.
        self.counts: Dict[str, int] = {fault.name: 0 for fault in plan}
        self._installed = False
        self._clamped_queues: List = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm every fault in the plan; returns self for chaining."""
        if self._installed:
            raise RuntimeError("fault injector installed twice")
        self._installed = True
        for fault in self.plan:
            stream = self._rngs.stream(fault.name)
            installer = getattr(self, "_install_" + fault.kind.replace("-", "_"))
            installer(fault, stream)
        return self

    # ------------------------------------------------------------------
    # Shared arrival machinery
    # ------------------------------------------------------------------
    def _window(self, fault: FaultSpec):
        start_ns = max(self.sim.now, ns_from_ms(fault.start_ms))
        end_ns = None if fault.end_ms is None else ns_from_ms(fault.end_ms)
        return start_ns, end_ns

    def _arrivals(
        self,
        fault: FaultSpec,
        stream,
        fire: Callable[[], None],
        default_period_ms: float,
    ) -> None:
        """Poisson arrivals of ``fire`` inside the fault's window."""
        start_ns, end_ns = self._window(fault)
        mean_ms = float(fault.param("mean_period_ms", default_period_ms))
        if mean_ms <= 0:
            raise ValueError(f"{fault.name!r}: mean_period_ms must be positive")

        def schedule_next(after_ns: int) -> None:
            gap_ns = max(1, round(stream.expovariate(1.0 / mean_ms) * NS_PER_MS))
            at_ns = after_ns + gap_ns
            if end_ns is not None and at_ns >= end_ns:
                return

            def arrive() -> None:
                self.counts[fault.name] += 1
                self._notify_obs(fault)
                fire()
                schedule_next(at_ns)

            self.sim.schedule_at(at_ns, arrive, label=f"fault:{fault.name}")

        schedule_next(start_ns)

    def _magnitude(self, stream, mean: float) -> float:
        """Jittered magnitude: uniform in [0.5, 1.5] x mean."""
        return mean * stream.uniform(0.5, 1.5)

    def _notify_obs(self, fault: FaultSpec) -> None:
        """Surface one injection to a live tracer or metrics registry."""
        obs = self.system.kernel.obs
        if obs is not None:
            obs.fault_injected(fault.name, fault.kind)

    # ------------------------------------------------------------------
    # disk-stall: service-time spikes and transient stalls
    # ------------------------------------------------------------------
    def _install_disk_stall(self, fault: FaultSpec, stream) -> None:
        disk = self.machine.disk
        stall_ms = float(fault.param("stall_ms", 25.0))
        state = {"until_ns": 0}

        def modifier(_request, _base_ns: int) -> int:
            return max(0, state["until_ns"] - self.sim.now)

        disk.add_service_time_modifier(modifier)

        def fire() -> None:
            spike_ns = round(self._magnitude(stream, stall_ms) * NS_PER_MS)
            state["until_ns"] = max(state["until_ns"], self.sim.now + spike_ns)

        self._arrivals(fault, stream, fire, default_period_ms=60.0)

    # ------------------------------------------------------------------
    # irq-storm: spurious interrupt bursts on a device vector
    # ------------------------------------------------------------------
    def _install_irq_storm(self, fault: FaultSpec, stream) -> None:
        controller = self.machine.interrupts
        vector = str(fault.param("vector", "nic"))
        burst = int(fault.param("burst", 20))
        gap_us = float(fault.param("gap_us", 120.0))

        def fire() -> None:
            for i in range(burst):
                self.sim.schedule(
                    round(i * ns_from_us(gap_us)),
                    lambda: controller.raise_spurious(vector),
                    label=f"fault:{fault.name}:irq",
                )

        self._arrivals(fault, stream, fire, default_period_ms=50.0)

    # ------------------------------------------------------------------
    # queue-pressure: junk message floods and finite capacity
    # ------------------------------------------------------------------
    def _install_queue_pressure(self, fault: FaultSpec, stream) -> None:
        burst = int(fault.param("burst", 8))
        capacity = fault.param("capacity")

        if capacity is not None:
            start_ns, end_ns = self._window(fault)

            def clamp() -> None:
                thread = self.kernel.foreground
                if thread is None:
                    return
                thread.queue.capacity = int(capacity)
                self._clamped_queues.append(thread.queue)

            def unclamp() -> None:
                for queue in self._clamped_queues:
                    queue.capacity = None

            self.sim.schedule_at(start_ns, clamp, label=f"fault:{fault.name}:clamp")
            if end_ns is not None:
                self.sim.schedule_at(
                    end_ns, unclamp, label=f"fault:{fault.name}:unclamp"
                )

        def fire() -> None:
            thread = self.kernel.foreground
            if thread is None or thread.done:
                return
            for _ in range(burst):
                self.kernel.post_message(
                    thread, Message(WM.USER, payload="fault-junk", from_input=False)
                )

        self._arrivals(fault, stream, fire, default_period_ms=80.0)

    # ------------------------------------------------------------------
    # sched-jitter: preempted threads lose their requeue position
    # ------------------------------------------------------------------
    def _install_sched_jitter(self, fault: FaultSpec, stream) -> None:
        probability = float(fault.param("probability", 0.25))
        start_ns, end_ns = self._window(fault)
        scheduler = self.kernel.scheduler

        def jitter(_thread) -> bool:
            demote = stream.random() < probability
            if demote:
                self.counts[fault.name] += 1
                self._notify_obs(fault)
            return demote

        self.sim.schedule_at(
            start_ns,
            lambda: scheduler.set_requeue_jitter(jitter),
            label=f"fault:{fault.name}:on",
        )
        if end_ns is not None:
            self.sim.schedule_at(
                end_ns,
                lambda: scheduler.set_requeue_jitter(None),
                label=f"fault:{fault.name}:off",
            )

    # ------------------------------------------------------------------
    # memory-pressure: TLB-flush storms stealing CPU
    # ------------------------------------------------------------------
    def _install_memory_pressure(self, fault: FaultSpec, stream) -> None:
        cpu = self.machine.cpu
        cost_us = float(fault.param("cost_us", 150.0))
        flushes = int(fault.param("tlb_flushes", 8))
        misses = int(fault.param("tlb_misses", 400))

        def fire() -> None:
            stolen_us = self._magnitude(stream, cost_us)
            cycles = max(1, round(stolen_us * cpu.hz / 1e6))
            cpu.steal(
                Work(
                    cycles,
                    events={
                        HwEvent.TLB_FLUSH: flushes,
                        HwEvent.DTLB_MISS: misses,
                        HwEvent.ITLB_MISS: misses // 4,
                    },
                    label=f"fault:{fault.name}",
                )
            )

        self._arrivals(fault, stream, fire, default_period_ms=30.0)

    # ------------------------------------------------------------------
    # link-degrade: loss/jitter/bandwidth/flap windows on the remote link
    # ------------------------------------------------------------------
    def _install_link_degrade(self, fault: FaultSpec, stream) -> None:
        """Degrade ``system.remote_link`` over the fault's window.

        Harmlessly no-ops on systems without a remote link (the probe
        matrix runs every scenario against plain local systems), and the
        stream is still created by :meth:`install`, so adding a remote
        link never perturbs other faults' draws.
        """
        loss_add = float(fault.param("loss_add", 0.0))
        jitter_add_ms = float(fault.param("jitter_add_ms", 0.0))
        bandwidth_factor = float(fault.param("bandwidth_factor", 1.0))
        flap_period_ms = float(fault.param("flap_period_ms", 0.0))
        flap_down_ms = float(fault.param("flap_down_ms", 0.0))
        start_ns, end_ns = self._window(fault)
        state = {"token": None, "flapped": False}

        def apply() -> None:
            link = getattr(self.system, "remote_link", None)
            if link is None:
                return
            self.counts[fault.name] += 1
            self._notify_obs(fault)
            state["token"] = link.degrade(
                loss_add=loss_add,
                jitter_add_ms=jitter_add_ms,
                bandwidth_factor=bandwidth_factor,
            )
            if flap_period_ms > 0.0:
                link.set_flap(flap_period_ms, flap_down_ms)
                state["flapped"] = True

        def restore() -> None:
            link = getattr(self.system, "remote_link", None)
            if link is None or state["token"] is None:
                return
            link.restore(state["token"])
            state["token"] = None
            if state["flapped"]:
                link.clear_flap()
                state["flapped"] = False

        self.sim.schedule_at(start_ns, apply, label=f"fault:{fault.name}:on")
        if end_ns is not None:
            self.sim.schedule_at(end_ns, restore, label=f"fault:{fault.name}:off")

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def total_injections(self) -> int:
        return sum(self.counts.values())

    def counts_by_kind(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for fault in self.plan:
            by_kind[fault.kind] = by_kind.get(fault.kind, 0) + self.counts[fault.name]
        return by_kind

    def summary(self) -> dict:
        """Archivable record of what the plan did to this machine."""
        queues_dropped = sum(
            thread.queue.dropped_count for thread in self.kernel.threads
        )
        return {
            "plan": self.plan.name,
            "counts": dict(self.counts),
            "by_kind": self.counts_by_kind(),
            "total": self.total_injections(),
            "disk_injected_ms": self.machine.disk.injected_service_ns / NS_PER_MS,
            "spurious_interrupts": dict(self.machine.interrupts.spurious),
            "messages_dropped": queues_dropped,
            "tlb_flushes": self.machine.perf.total(HwEvent.TLB_FLUSH),
        }
