"""The booted operating system: machine + kernel + public surface.

:class:`WindowsSystem` is what experiments and the measurement layer
hold: it exposes exactly the surface the paper had access to — spawning
processes (including a low-priority one to replace the idle loop),
hooking USER32 entry points, reading the hardware counters, and driving
input devices — plus explicit extension points (queue/I/O observers)
that the paper lists as future system support (Section 6).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.machine import Machine, MachineSpec
from .kernel import Kernel
from .messages import WM, Message
from .personality import OSPersonality
from .threads import IDLE_PRIORITY, NORMAL_PRIORITY, SimThread

__all__ = ["WindowsSystem"]


class WindowsSystem:
    """One simulated PC running one simulated Windows release."""

    def __init__(self, personality: OSPersonality, machine: Optional[Machine] = None,
                 seed: int = 0) -> None:
        self.personality = personality
        self.machine = machine or Machine(MachineSpec(master_seed=seed))
        self.kernel = Kernel(self.machine, personality)
        self._booted = False
        #: The boot's repro.obs SystemInstrumentation when an observed
        #: scope booted it, None otherwise.  Harvesters read the boot's
        #: envelope recorder from its ``envelopes``; hook sites read the
        #: kernel's ``obs`` and ``envelopes`` slots instead.
        self.obs = None

    def boot(self) -> "WindowsSystem":
        """Wire interrupts, start the clock; returns self for chaining."""
        if not self._booted:
            self.kernel.boot()
            self._booted = True
        return self

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.machine.sim

    @property
    def now(self) -> int:
        return self.machine.sim.now

    @property
    def hooks(self):
        """The USER32 interposition point (Section 2.4)."""
        return self.kernel.hooks

    @property
    def perf(self):
        """The hardware counter file (Section 2.2)."""
        return self.machine.perf

    @property
    def filesystem(self):
        return self.kernel.filesystem

    @property
    def iomgr(self):
        return self.kernel.iomgr

    # ------------------------------------------------------------------
    # Processes and input
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        program,
        priority: int = NORMAL_PRIORITY,
        foreground: bool = False,
    ) -> SimThread:
        """Create a thread from a generator ``program``.

        ``priority=IDLE_PRIORITY`` is how a measurement tool replaces the
        system idle loop, per Section 2.3.
        """
        thread = self.kernel.create_thread(name, program, priority)
        if foreground:
            self.kernel.set_foreground(thread)
        return thread

    def spawn_idle(self, name: str, program) -> SimThread:
        """Spawn at idle priority (the paper's replacement idle loop)."""
        return self.spawn(name, program, priority=IDLE_PRIORITY)

    def bind_socket(self, thread: SimThread) -> None:
        """Route WM_SOCKET packet notifications to ``thread``."""
        self.kernel.bind_socket(thread)

    def post_queuesync(self) -> None:
        """Post the WM_QUEUESYNC that MS Test emits after each input event."""
        self.kernel.post_to_foreground(Message(WM.QUEUESYNC, from_input=False))

    def post_command(self, command: object) -> None:
        """Post a WM_COMMAND to the foreground app (menu actions, etc.)."""
        self.kernel.post_to_foreground(
            Message(WM.COMMAND, payload=command, from_input=True)
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_for(self, duration_ns: int) -> int:
        return self.machine.run_for(duration_ns)

    def quiescent(self) -> bool:
        """No non-idle thread runnable, no DPC, no pending I/O, empty queues."""
        kernel = self.kernel
        if kernel._dpc_queue or kernel._spin_active or kernel._active_dpc:
            return False
        if kernel._timers:
            return False  # an armed timer means periodic work is coming
        running = kernel.running
        if running is not None:
            if not isinstance(running, SimThread):
                return False
            if running.priority > IDLE_PRIORITY:
                return False
        top = kernel.scheduler.top_priority()
        if top is not None and top > IDLE_PRIORITY:
            return False
        if kernel.iomgr.pending_ops:
            return False
        for thread in kernel.threads:
            if not thread.done and thread.priority > IDLE_PRIORITY and len(thread.queue):
                return False
        return True

    def run_until_quiescent(
        self,
        max_ns: Optional[int] = None,
        settle_ns: int = 0,
        confirm_ns: int = 12_000_000,
        confirm_step_ns: int = 2_000_000,
    ) -> int:
        """Run until the system is quiescent (plus optional settle time).

        Quiescence must *hold* for ``confirm_ns``: freshly injected
        input spends microseconds purely on the event calendar (between
        the ISR and its DPC) where no kernel structure shows work, so a
        single instantaneous check would return too early.

        ``max_ns`` bounds the wait (absolute time).  Returns the time at
        which quiescence was confirmed.
        """
        deadline = max_ns if max_ns is not None else self.now + 120 * 10**9
        while self.now < deadline:
            if not self.quiescent():
                self.sim.run(until=self.quiescent, until_ns=deadline)
                continue
            confirm_until = min(self.now + confirm_ns, deadline)
            held = True
            while self.now < confirm_until:
                self.run_for(min(confirm_step_ns, confirm_until - self.now))
                if not self.quiescent():
                    held = False
                    break
            if held:
                break
        if settle_ns:
            self.run_for(settle_ns)
        return self.now
