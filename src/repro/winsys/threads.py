"""Kernel threads.

A :class:`SimThread` wraps an application generator (its *program*) with
scheduling state.  Priorities follow an NT-like ladder; the instrument
of Section 2.3 registers at :data:`IDLE_PRIORITY` so it runs exactly
when the real idle loop would.
"""

from __future__ import annotations

from enum import Enum
from typing import Generator, Optional

from ..sim.work import Work
from .messages import MessageQueue

__all__ = [
    "IDLE_PRIORITY",
    "BACKGROUND_PRIORITY",
    "NORMAL_PRIORITY",
    "INPUT_PRIORITY",
    "ThreadState",
    "SimThread",
]

#: Priority levels (higher number = scheduled first).
IDLE_PRIORITY = 0
BACKGROUND_PRIORITY = 4
NORMAL_PRIORITY = 8
INPUT_PRIORITY = 12


class ThreadState(Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class SimThread:
    """One schedulable thread: a generator plus kernel bookkeeping."""

    _next_id = 1

    def __init__(
        self,
        name: str,
        program: Generator,
        priority: int = NORMAL_PRIORITY,
    ) -> None:
        self.tid = SimThread._next_id
        SimThread._next_id += 1
        self.name = name
        self.program = program
        self.priority = priority
        self.state = ThreadState.READY
        self.queue = MessageQueue(owner_name=name)
        #: Why the thread is blocked: 'message' | 'io' | 'sleep' | None.
        self.wait_reason: Optional[str] = None
        #: Remaining work of a preempted Compute, resumed on dispatch.
        self.pending_work: Optional[Work] = None
        #: Deferred action to run when the current costed syscall's work
        #: completes (set by the kernel's perform step).
        self.pending_action = None
        #: Argument for ``pending_action`` (None → called with no args).
        #: Carrying the argument here instead of closing over it lets the
        #: kernel return prebound methods from its syscall table without
        #: allocating a closure per dispatch.
        self.pending_action_arg = None
        #: Value to send into the generator on next dispatch.
        self.resume_value: object = None
        #: Clock ticks consumed since the quantum last reset (the kernel
        #: rotates equal-priority threads when this reaches the quantum).
        self.quantum_ticks_used = 0
        self._started = False
        # Accounting.
        self.cpu_ns = 0
        self.dispatches = 0

    def advance(self, send_value: object = None):
        """Step the generator to its next syscall.

        Raises StopIteration when the program finishes.
        """
        if not self._started:
            self._started = True
            # After the first step every advance is a plain send; rebind
            # the instance attribute so later calls skip this wrapper
            # frame entirely (the kernel drives advance once per
            # syscall, so the extra frame is measurable).
            self.advance = self.program.send
            return next(self.program)
        return self.program.send(send_value)

    @property
    def done(self) -> bool:
        return self.state == ThreadState.DONE

    @property
    def blocked(self) -> bool:
        return self.state == ThreadState.BLOCKED

    def __repr__(self) -> str:
        return (
            f"<SimThread #{self.tid} {self.name!r} prio={self.priority} "
            f"{self.state.value}>"
        )
