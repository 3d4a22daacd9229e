"""Interrupt controller and interrupt sources.

Devices raise interrupts; the controller charges the ISR cost against
the CPU (stealing time from whatever is executing — see
:meth:`repro.sim.cpu.CPU.steal`) and invokes the registered handler's
post-action when the ISR retires.  The periodic clock interrupt is the
source of the 10 ms activity bursts visible in the paper's idle-system
profiles (Figure 3) and of the 10 ms alignment of animation steps
(Figure 4a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .cpu import CPU
from .engine import Simulator
from .timebase import ns_from_ms
from .work import HwEvent, Work

__all__ = ["InterruptVector", "InterruptController", "PeriodicClock"]


@dataclass(frozen=True)
class InterruptVector:
    """A named interrupt line with its service-routine cost."""

    name: str
    isr_work: Work


class InterruptController:
    """Routes device interrupts to ISR costs and handler post-actions."""

    def __init__(self, sim: Simulator, cpu: CPU) -> None:
        self.sim = sim
        self.cpu = cpu
        self._vectors: Dict[str, InterruptVector] = {}
        self._handlers: Dict[str, Callable[[object], None]] = {}
        #: Engine handler id per vector (``schedule_call`` convention:
        #: the handler receives the interrupt payload).  Deliveries then
        #: cost one heap tuple instead of a closure plus event handle.
        self._handler_hids: Dict[str, int] = {}
        #: Per-vector delivery counts, for diagnostics and tests.
        self.delivered: Dict[str, int] = {}
        #: Per-vector spurious delivery counts (ISR cost, no handler).
        self.spurious: Dict[str, int] = {}
        #: Observer ``(vector, payload, duration_ns, spurious)`` of every
        #: delivery, or None when nothing reads deliveries (the default).
        #: A spurious delivery carries no payload.
        self.obs: Optional[Callable[[str, object, int, bool], None]] = None

    def register(
        self,
        name: str,
        isr_work: Work,
        handler: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Install a vector: ISR cost plus optional post-action handler.

        The handler runs *after* the ISR's stolen time has elapsed, i.e.
        at the moment the hardware would return from the service routine.
        """
        self._vectors[name] = InterruptVector(name, isr_work)
        if handler is not None:
            self._handlers[name] = handler
            self._handler_hids[name] = self.sim.register_handler(handler)
        self.delivered.setdefault(name, 0)

    def set_handler(self, name: str, handler: Callable[[object], None]) -> None:
        """Replace the post-action handler for an existing vector."""
        if name not in self._vectors:
            raise KeyError(f"unknown interrupt vector {name!r}")
        self._handlers[name] = handler
        self._handler_hids[name] = self.sim.register_handler(handler)

    def set_isr_work(self, name: str, isr_work: Work) -> None:
        """Re-cost a vector (used by OS personalities at boot)."""
        if name not in self._vectors:
            raise KeyError(f"unknown interrupt vector {name!r}")
        self._vectors[name] = InterruptVector(name, isr_work)

    def raise_interrupt(self, name: str, payload: object = None) -> None:
        """Deliver an interrupt on vector ``name`` right now."""
        vector = self._vectors.get(name)
        if vector is None:
            raise KeyError(f"unknown interrupt vector {name!r}")
        self.cpu.perf.charge(HwEvent.INTERRUPTS, 1)
        duration = self.cpu.steal(vector.isr_work)
        self.delivered[name] = self.delivered.get(name, 0) + 1
        if self.obs is not None:
            self.obs(name, payload, duration, False)
        hid = self._handler_hids.get(name)
        if hid is not None:
            # The handler runs at ISR retirement; the kind entry carries
            # the payload so no closure or handle is allocated.
            self.sim.schedule_call(duration, hid, payload)

    def credit(self, name: str, count: int) -> None:
        """Account ``count`` deliveries on vector ``name`` in one step.

        Charges what ``count`` :meth:`raise_interrupt` calls charge: the
        interrupt event, the ISR's hardware events and busy time, and the
        delivery count.  The kernel's quiescent jump crosses clock ticks
        this way; it computes the stolen time and the post-actions in
        closed form itself, and no observer sees the crossed deliveries
        (the jump crosses ticks only when no tracer or metrics registry
        is live, and the envelope recorder ignores clock interrupts).
        """
        self.cpu.perf.charge(HwEvent.INTERRUPTS, count)
        self.cpu.credit(self._vectors[name].isr_work, count)
        self.delivered[name] = self.delivered.get(name, 0) + count

    def raise_spurious(self, name: str) -> int:
        """Deliver a *spurious* interrupt on vector ``name``.

        The full ISR cost is charged against the CPU — stealing time
        from whatever runs, exactly like a genuine delivery — but no
        post-action handler fires, because the device has nothing to
        report.  This is how an interrupt storm degrades a system: pure
        service overhead with no useful work behind it.  Returns the
        ISR duration in nanoseconds.
        """
        vector = self._vectors.get(name)
        if vector is None:
            raise KeyError(f"unknown interrupt vector {name!r}")
        self.cpu.perf.charge(HwEvent.INTERRUPTS, 1)
        duration = self.cpu.steal(vector.isr_work)
        self.spurious[name] = self.spurious.get(name, 0) + 1
        if self.obs is not None:
            self.obs(name, None, duration, True)
        return duration


class PeriodicClock:
    """The 10 ms hardware timer interrupt (Section 2.5).

    Fires on a fixed period from simulated time zero so that animation
    steps and scheduler ticks land on the same 10 ms boundaries the
    paper observed.
    """

    VECTOR = "clock"

    def __init__(
        self,
        sim: Simulator,
        controller: InterruptController,
        period_ns: int = ns_from_ms(10),
        isr_work: Optional[Work] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.period_ns = period_ns
        self.ticks = 0
        #: ``(time, seq)`` of the armed tick entry, or None before
        #: :meth:`start`.  The kernel's quiescent jump crosses ticks in
        #: closed form and re-keys this entry (:meth:`credit`).
        self.pending: Optional[Tuple[int, int]] = None
        controller.register(
            self.VECTOR,
            isr_work if isr_work is not None else Work(400, label="clock-isr"),
        )
        #: Engine handler id for the tick re-arm (no-argument kind).
        self.tick_hid = sim.register_handler(self._tick)

    def start(self) -> None:
        """Begin ticking; the first tick lands on the next period boundary."""
        if self.pending is None:
            self._schedule_next()

    def _schedule_next(self) -> None:
        next_tick = ((self.sim.now // self.period_ns) + 1) * self.period_ns
        self.pending = (next_tick, self.sim.schedule_kind_at(next_tick, self.tick_hid))

    def _tick(self) -> None:
        self.ticks += 1
        self.controller.raise_interrupt(self.VECTOR, payload=self.ticks)
        self._schedule_next()

    def credit(self, count: int, pending: Tuple[int, int]) -> None:
        """Account ``count`` ticks a quiescent jump crossed.

        ``pending`` is the ``(time, seq)`` key the jump gave the re-armed
        tick entry (see :meth:`repro.sim.engine.Simulator.fast_forward`).
        """
        self.ticks += count
        self.controller.credit(self.VECTOR, count)
        self.pending = pending
